package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/sched"
)

// Assignment maps one fragment (≡ back-end job) to the engine chosen for
// it, with its estimated cost.
type Assignment struct {
	Frag   *ir.Fragment
	Engine *engines.Engine
	Cost   cluster.Seconds
}

// Partitioning is a complete decomposition of a workflow into jobs.
type Partitioning struct {
	Jobs []Assignment
	Cost cluster.Seconds
	// Exhaustive records which algorithm produced it.
	Exhaustive bool
}

// String renders the partitioning one job per line.
func (p *Partitioning) String() string {
	var b strings.Builder
	for _, j := range p.Jobs {
		fmt.Fprintf(&b, "%-12s %v  %s\n", j.Engine.Name(), j.Cost, j.Frag)
	}
	fmt.Fprintf(&b, "total: %v\n", p.Cost)
	return b.String()
}

// Engines lists the distinct engines used, sorted.
func (p *Partitioning) Engines() []string {
	set := make(map[string]bool, len(p.Jobs))
	for _, j := range p.Jobs {
		set[j.Engine.Name()] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExhaustiveLimit is the operator count up to which Partition uses the
// exhaustive search. The paper ran it under a second up to 13 operators
// (§6.6, Fig 13). With fragment costs memoized on the Estimator the search
// re-prices each candidate group once instead of once per branch: the
// 16-operator prefix of the extended NetFlix workflow partitions in ~45ms
// even single-threaded (~64ms in the seed), and 18 operators stays around
// 200ms (was ~320ms); multi-core hosts additionally split the placement
// tree across workers. The cutover therefore now sits at 16 — beyond that
// the exponential tree growth still dominates and the dynamic heuristic
// takes over.
const ExhaustiveLimit = 16

// Partition decomposes the DAG into engine-assigned jobs, choosing the
// exhaustive search for small workflows and the dynamic-programming
// heuristic for large ones (paper §5.1).
func Partition(dag *ir.DAG, est *Estimator, engs []*engines.Engine) (*Partitioning, error) {
	if len(computeOps(dag)) <= ExhaustiveLimit {
		return PartitionExhaustive(dag, est, engs, 0)
	}
	return PartitionDynamic(dag, est, engs)
}

func computeOps(dag *ir.DAG) []*ir.Op {
	order, err := dag.TopoSort()
	if err != nil {
		order = dag.Ops
	}
	var ops []*ir.Op
	for _, op := range order {
		if op.Type != ir.OpInput {
			ops = append(ops, op)
		}
	}
	return ops
}

// bestEngine returns the cheapest engine for a fragment.
func bestEngine(est *Estimator, f *ir.Fragment, engs []*engines.Engine) (*engines.Engine, cluster.Seconds) {
	var best *engines.Engine
	bestCost := Infeasible
	for _, e := range engs {
		if c := est.FragmentCost(f, e); c < bestCost {
			best, bestCost = e, c
		}
	}
	return best, bestCost
}

// PartitionDynamic implements the dynamic-programming heuristic (§5.1.2):
// it topologically sorts the DAG into a single linear ordering, then finds
// the minimum-cost segmentation of that ordering, where each segment's cost
// is the cheapest engine's cost for running the segment as one job:
//
//	C[n] = min over k < n of C[k] + min_s c_s(o_{k+1} … o_n)
//
// Runtime is polynomial in the number of operators; the price is that only
// partitions respecting the linear order are explored, so merge
// opportunities broken by the ordering are missed (paper Fig 16).
func PartitionDynamic(dag *ir.DAG, est *Estimator, engs []*engines.Engine) (*Partitioning, error) {
	ops := computeOps(dag)
	if len(ops) == 0 {
		return nil, fmt.Errorf("core: nothing to partition")
	}
	return dynamicOverOrder(dag, est, engs, ops)
}

// PartitionDynamicMulti runs the dynamic heuristic over several distinct
// topological orderings and keeps the cheapest segmentation. This is the
// paper's §8 mitigation for the heuristic's Fig 16 limitation: a single
// linear order can separate operators that would merge profitably; trying a
// handful of randomized orders recovers most of those opportunities while
// staying polynomial. Orders are derived deterministically from the DAG, so
// results are reproducible.
func PartitionDynamicMulti(dag *ir.DAG, est *Estimator, engs []*engines.Engine, orders int) (*Partitioning, error) {
	if orders < 1 {
		orders = 1
	}
	best, err := PartitionDynamic(dag, est, engs)
	if err != nil {
		return nil, err
	}
	//mkvet:ignore determinism fixed seed 42: the tie-break shuffle is replayable by construction, every run draws the identical sequence
	r := rand.New(rand.NewSource(42))
	for i := 1; i < orders; i++ {
		ops, err := randomTopoOrder(dag, r)
		if err != nil {
			return nil, err
		}
		cand, err := dynamicOverOrder(dag, est, engs, ops)
		if err != nil {
			continue // this order admits no feasible segmentation
		}
		if cand.Cost < best.Cost {
			best = cand
		}
	}
	return best, nil
}

// randomTopoOrder produces a topological order of the DAG's compute
// operators using Kahn's algorithm with randomized tie-breaking.
func randomTopoOrder(dag *ir.DAG, r *rand.Rand) ([]*ir.Op, error) {
	indeg := map[*ir.Op]int{}
	for _, op := range dag.Ops {
		indeg[op] += 0
		for range op.Inputs {
			indeg[op]++
		}
	}
	cons := dag.Consumers()
	var ready []*ir.Op
	for _, op := range dag.Ops {
		if indeg[op] == 0 {
			ready = append(ready, op)
		}
	}
	var order []*ir.Op
	for len(ready) > 0 {
		i := r.Intn(len(ready))
		op := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		if op.Type != ir.OpInput {
			order = append(order, op)
		}
		for _, c := range cons[op] {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(order) != len(computeOps(dag)) {
		return nil, fmt.Errorf("core: cycle during randomized topological sort")
	}
	return order, nil
}

func dynamicOverOrder(dag *ir.DAG, est *Estimator, engs []*engines.Engine, ops []*ir.Op) (*Partitioning, error) {
	n := len(ops)
	type cell struct {
		cost cluster.Seconds
		prev int
		eng  *engines.Engine
	}
	best := make([]cell, n+1)
	best[0] = cell{cost: 0, prev: -1}
	ekey := engsKey(engs)
	for i := 1; i <= n; i++ {
		best[i] = cell{cost: Infeasible, prev: -1}
		for k := i - 1; k >= 0; k-- {
			if best[k].cost == Infeasible {
				continue
			}
			// Memoized: PartitionDynamicMulti re-scores the same segments
			// across orders, and the WHILE cost model re-partitions loop
			// bodies per engine.
			ch := est.groupChoice(dag, ops[k:i], engs, ekey)
			if ch.eng == nil {
				continue
			}
			if total := best[k].cost + ch.cost; total < best[i].cost {
				best[i] = cell{cost: total, prev: k, eng: ch.eng}
			}
		}
	}
	if best[n].cost == Infeasible {
		return nil, fmt.Errorf("core: no feasible partitioning for engines %v", engineNames(engs))
	}
	// Reconstruct segments back to front.
	var jobs []Assignment
	for i := n; i > 0; {
		k := best[i].prev
		frag, err := ir.NewFragment(dag, ops[k:i])
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, Assignment{Frag: frag, Engine: best[i].eng, Cost: best[i].cost - best[k].cost})
		i = k
	}
	// Reverse into execution order.
	for l, r := 0, len(jobs)-1; l < r; l, r = l+1, r-1 {
		jobs[l], jobs[r] = jobs[r], jobs[l]
	}
	return &Partitioning{Jobs: jobs, Cost: best[n].cost}, nil
}

func engineNames(engs []*engines.Engine) []string {
	names := make([]string, len(engs))
	for i, e := range engs {
		names[i] = e.Name()
	}
	return names
}

// parallelExhaustiveMinOps is the operator count below which the exhaustive
// search stays serial: the placement tree is too small to amortize goroutine
// and task-cloning overhead.
const parallelExhaustiveMinOps = 8

// PartitionExhaustive explores every valid partition of the DAG (§5.1.1):
// operators are placed, in topological order, either into a new job or into
// any existing job they can legally join; each complete partition is scored
// with the cheapest engine per job. Branch-and-bound pruning cuts partial
// partitions that already cost more than the best complete one; fragment
// costs are memoized on the Estimator, so re-examined groups (and later
// searches over the same workflow) are map hits. For non-trivial workflows
// the top of the placement tree is expanded into independent subtrees that
// search in parallel, sharing the branch-and-bound upper bound through an
// atomic. The search is exponential in the number of operators; a non-zero
// budget makes it return the best partition found when time runs out.
func PartitionExhaustive(dag *ir.DAG, est *Estimator, engs []*engines.Engine, budget time.Duration) (*Partitioning, error) {
	ops := computeOps(dag)
	if len(ops) == 0 {
		return nil, fmt.Errorf("core: nothing to partition")
	}
	deadline := time.Time{}
	if budget > 0 {
		//mkvet:ignore determinism opt-in wall-clock search budget: with the default zero budget the clock is never read and the search is exhaustive+deterministic
		deadline = time.Now().Add(budget)
	}
	s := &exhaustiveState{
		dag: dag, est: est, engs: engs, ekey: engsKey(engs), ops: ops,
		deadline: deadline,
	}
	s.bound.Store(infeasibleBits)

	bestCost := Infeasible
	var bestGroups [][]*ir.Op
	if workers := runtime.GOMAXPROCS(0); workers > 1 && len(ops) >= parallelExhaustiveMinOps {
		tasks := s.seedTasks(4 * workers)
		results := make([]exhaustiveWorker, len(tasks))
		sched.ForEach(workers, len(tasks), func(ti int) {
			w := &results[ti]
			w.s, w.bestCost = s, Infeasible
			w.search(tasks[ti].i, tasks[ti].groups, tasks[ti].partial)
		})
		// Reduce in task order with strict improvement, so equal-cost optima
		// resolve to the earliest subtree in placement order.
		for i := range results {
			if results[i].bestCost < bestCost {
				bestCost, bestGroups = results[i].bestCost, results[i].bestGroups
			}
		}
	} else {
		w := &exhaustiveWorker{s: s, bestCost: Infeasible}
		w.search(0, nil, 0)
		bestCost, bestGroups = w.bestCost, w.bestGroups
	}
	if bestCost == Infeasible {
		return nil, fmt.Errorf("core: no feasible partitioning for engines %v", engineNames(engs))
	}
	jobs := make([]Assignment, 0, len(bestGroups))
	for _, group := range bestGroups {
		frag, err := ir.NewFragment(dag, group)
		if err != nil {
			return nil, err
		}
		ch := est.groupChoice(dag, group, engs, s.ekey)
		jobs = append(jobs, Assignment{Frag: frag, Engine: ch.eng, Cost: ch.cost})
	}
	sortJobsTopologically(dag, jobs)
	return &Partitioning{Jobs: jobs, Cost: bestCost, Exhaustive: true}, nil
}

// fragChoice is a memoized (cheapest engine, cost) pair for one operator
// group on one engine set.
type fragChoice struct {
	cost cluster.Seconds
	eng  *engines.Engine
}

// engsKey renders an engine set as a cache-key prefix.
func engsKey(engs []*engines.Engine) string {
	var b strings.Builder
	for _, e := range engs {
		b.WriteString(e.Name())
		b.WriteByte('|')
	}
	return b.String()
}

// groupChoice returns the memoized cheapest engine and cost for running the
// operator group as a single job on any engine of the set. Safe for
// concurrent use; an infeasible group caches {Infeasible, nil}.
func (e *Estimator) groupChoice(dag *ir.DAG, group []*ir.Op, engs []*engines.Engine, ekey string) fragChoice {
	// Memoized scores are only valid for the calibration version they were
	// computed under; a version bump (new evidence) flushes them first.
	e.syncCalibration()
	key := ekey + groupKey(group)
	e.fragMu.RLock()
	c, ok := e.fragCache[key]
	e.fragMu.RUnlock()
	if ok {
		e.searchMemoHits.Add(1)
		return c
	}
	e.searchExplored.Add(1)
	choice := fragChoice{cost: Infeasible}
	if frag, err := ir.NewFragment(dag, group); err == nil {
		eng, cost := bestEngine(e, frag, engs)
		choice = fragChoice{cost: cost, eng: eng}
	}
	e.fragMu.Lock()
	e.fragCache[key] = choice
	e.fragMu.Unlock()
	return choice
}

// exhaustiveState is the search context shared by all workers: read-only
// after construction except for the atomic bound and the expiry flag.
type exhaustiveState struct {
	dag      *ir.DAG
	est      *Estimator
	engs     []*engines.Engine
	ekey     string
	ops      []*ir.Op
	deadline time.Time
	expired  atomic.Bool
	// bound holds the float64 bits of the cheapest complete partition found
	// by any worker; every worker prunes against it.
	bound atomic.Uint64
}

var infeasibleBits = math.Float64bits(math.Inf(1))

func (s *exhaustiveState) loadBound() cluster.Seconds {
	return cluster.Seconds(math.Float64frombits(s.bound.Load()))
}

// lowerBound publishes a newly found complete-partition cost if it improves
// the shared bound.
func (s *exhaustiveState) lowerBound(c cluster.Seconds) {
	for {
		cur := s.bound.Load()
		if math.Float64frombits(cur) <= float64(c) {
			return
		}
		if s.bound.CompareAndSwap(cur, math.Float64bits(float64(c))) {
			return
		}
	}
}

func (s *exhaustiveState) groupCost(group []*ir.Op) cluster.Seconds {
	return s.est.groupChoice(s.dag, group, s.engs, s.ekey).cost
}

// exhaustiveTask is one independent subtree of the placement search:
// ops[:i] are already placed into groups at summed cost partial. Tasks own
// their groups (deep copies), so workers mutate them freely.
type exhaustiveTask struct {
	i       int
	groups  [][]*ir.Op
	partial cluster.Seconds
}

func cloneGroups(groups [][]*ir.Op) [][]*ir.Op {
	c := make([][]*ir.Op, len(groups))
	for i, g := range groups {
		c[i] = append([]*ir.Op(nil), g...)
	}
	return c
}

// seedTasks expands the top of the placement tree level by level until at
// least target subtrees exist (or the tree bottoms out), enumerating
// children in the same order the serial search visits them.
func (s *exhaustiveState) seedTasks(target int) []exhaustiveTask {
	frontier := []exhaustiveTask{{i: 0}}
	for depth := 0; depth < len(s.ops) && len(frontier) < target; depth++ {
		next := make([]exhaustiveTask, 0, 2*len(frontier))
		for _, t := range frontier {
			if t.i == len(s.ops) {
				next = append(next, t)
				continue
			}
			op := s.ops[t.i]
			if solo := s.groupCost([]*ir.Op{op}); solo < Infeasible {
				g := append(cloneGroups(t.groups), []*ir.Op{op})
				next = append(next, exhaustiveTask{i: t.i + 1, groups: g, partial: t.partial + solo})
			}
			for gi := range t.groups {
				if s.mergeCreatesCycle(t.groups, gi, op) {
					continue
				}
				old := s.groupCost(t.groups[gi])
				grown := append(append([]*ir.Op(nil), t.groups[gi]...), op)
				merged := s.groupCost(grown)
				if merged < Infeasible {
					g := cloneGroups(t.groups)
					g[gi] = grown
					next = append(next, exhaustiveTask{i: t.i + 1, groups: g, partial: t.partial - old + merged})
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		frontier = next
	}
	return frontier
}

// exhaustiveWorker runs the serial branch-and-bound search over one subtree,
// keeping its own best and publishing improvements to the shared bound.
type exhaustiveWorker struct {
	s          *exhaustiveState
	bestCost   cluster.Seconds
	bestGroups [][]*ir.Op
}

// prune returns the cost at or above which a partial partition cannot beat
// the best known complete one (local or global).
func (w *exhaustiveWorker) prune() cluster.Seconds {
	if g := w.s.loadBound(); g < w.bestCost {
		return g
	}
	return w.bestCost
}

// groupKey identifies an op group by its sorted operator IDs — the
// partition search's memo key (IDs are unique across a DAG's loop bodies).
func groupKey(group []*ir.Op) string {
	ids := make([]int, len(group))
	for i, op := range group {
		ids[i] = op.ID
	}
	return intsKey(ids)
}

// fragmentKey identifies a fragment by its operators' sorted canonical
// positions — the recorded-runtime key, stable across renamed and
// reordered rebuilds of the workflow.
func fragmentKey(c *ir.Canon, f *ir.Fragment) string {
	pos := make([]int, len(f.Ops))
	for i, op := range f.Ops {
		pos[i] = c.Pos[op]
	}
	return intsKey(pos)
}

// intsKey sorts xs in place and renders it as "a,b,c,".
func intsKey(xs []int) string {
	sort.Ints(xs)
	b := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		b = strconv.AppendInt(b, int64(x), 10)
		b = append(b, ',')
	}
	return string(b)
}

// search places ops[i] into every legal position. groups holds the current
// partial partition; partial is its cost so far (sum of current group
// costs). Group costs are recomputed when a group changes.
func (w *exhaustiveWorker) search(i int, groups [][]*ir.Op, partial cluster.Seconds) {
	if w.s.expired.Load() {
		return
	}
	//mkvet:ignore determinism opt-in wall-clock search budget: guarded by deadline.IsZero, so the default configuration never observes the clock
	if !w.s.deadline.IsZero() && time.Now().After(w.s.deadline) {
		w.s.expired.Store(true)
		return
	}
	if partial >= w.prune() {
		return // branch and bound
	}
	if i == len(w.s.ops) {
		w.bestCost = partial
		w.bestGroups = make([][]*ir.Op, len(groups))
		for gi, g := range groups {
			w.bestGroups[gi] = append([]*ir.Op(nil), g...)
		}
		w.s.lowerBound(partial)
		return
	}
	op := w.s.ops[i]
	// Option A: start a new job.
	solo := w.s.groupCost([]*ir.Op{op})
	if solo < Infeasible {
		groups = append(groups, []*ir.Op{op})
		w.search(i+1, groups, partial+solo)
		groups = groups[:len(groups)-1]
	}
	// Option B: join an existing job, if no inter-job cycle arises and the
	// merged job remains feasible for some engine.
	for gi := range groups {
		if w.s.mergeCreatesCycle(groups, gi, op) {
			continue
		}
		old := w.s.groupCost(groups[gi])
		groups[gi] = append(groups[gi], op)
		merged := w.s.groupCost(groups[gi])
		if merged < Infeasible {
			w.search(i+1, groups, partial-old+merged)
		}
		groups[gi] = groups[gi][:len(groups[gi])-1]
	}
}

// mergeCreatesCycle reports whether adding op to groups[gi] would make the
// job quotient graph cyclic: some operator outside the group lies on a path
// from a group member to op.
func (s *exhaustiveState) mergeCreatesCycle(groups [][]*ir.Op, gi int, op *ir.Op) bool {
	member := map[*ir.Op]bool{}
	for _, m := range groups[gi] {
		member[m] = true
	}
	for _, m := range groups[gi] {
		// For every descendant v of m outside the group, if v reaches op,
		// the merged job would both feed and depend on v's job.
		for v := range s.est.reach[m] {
			if member[v] || v == op {
				continue
			}
			if s.est.Reaches(v, op) {
				return true
			}
		}
	}
	return false
}

// sortJobsTopologically orders jobs so producers precede consumers.
func sortJobsTopologically(dag *ir.DAG, jobs []Assignment) {
	pos := map[*ir.Op]int{}
	order, err := dag.TopoSort()
	if err != nil {
		return
	}
	for i, op := range order {
		pos[op] = i
	}
	sort.SliceStable(jobs, func(a, b int) bool {
		return pos[jobs[a].Frag.Ops[0]] < pos[jobs[b].Frag.Ops[0]]
	})
}
