package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"musketeer"
	"musketeer/internal/core"
	"musketeer/internal/engines"
	"musketeer/internal/exec"
	"musketeer/internal/relation"
)

// libWorkload is a workflow driven through the library API by one client
// in a closed loop: compile → Execute (or ExecuteOn) → ReadOutput, each
// output checked against the workload's oracle.
type libWorkload struct {
	name   string
	output string
	// engine pins one back-end; "" auto-maps over every engine.
	engine string
	// inputs maps DFS paths to the generated relations.
	inputs  map[string]*musketeer.Relation
	compile func(m *musketeer.Musketeer) (*musketeer.Workflow, error)
	verify  func(out *musketeer.Relation) error
}

const q17Hive = `
SELECT partkey FROM part WHERE brand == "Brand#23" AND container == "MED BOX" AS target_parts;
SELECT partkey, AVG(quantity) AS avg_qty FROM lineitem GROUP BY partkey AS part_avg;
lineitem JOIN target_parts ON lineitem.partkey = target_parts.partkey AS target_items;
target_items JOIN part_avg ON target_items.partkey = part_avg.partkey AS with_avg;
SELECT * FROM with_avg WHERE quantity < 0.2 * avg_qty AS small_orders;
SELECT SUM(extendedprice) AS revenue FROM small_orders AS q17;
`

// q17Batch is TPC-H Q17 in Hive over seeded lineitem/part (100k lineitem
// rows at scale 1), auto-mapped.
func q17Batch(seed int64, scale float64) *libWorkload {
	d := genQ17(seed, int(100_000*scale))
	li, pt := d.relations()
	want := q17Revenue(d)
	cat := musketeer.Catalog{
		"lineitem": {Path: "in/tpch/lineitem", Schema: q17LineitemSchema},
		"part":     {Path: "in/tpch/part", Schema: q17PartSchema},
	}
	return &libWorkload{
		name:   "q17-batch",
		output: "q17",
		inputs: map[string]*musketeer.Relation{"in/tpch/lineitem": li, "in/tpch/part": pt},
		compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
			return m.CompileHive(q17Hive, cat)
		},
		verify: func(out *musketeer.Relation) error { return checkScalar(out, "revenue", want) },
	}
}

const pageRankIterations = 5

var pageRankGAS = fmt.Sprintf(`
GATHER = {
    SUM(vertex_value)
}
APPLY = {
    MUL [vertex_value, 0.85]
    SUM [vertex_value, 0.15]
}
SCATTER = {
    DIV [vertex_value, vertex_degree]
}
ITERATION_STOP = (iteration < %d)
ITERATION = {
    SUM [iteration, 1]
}
`, pageRankIterations)

// pageRankLoop is GAS PageRank on a seeded power-law graph (240 vertices,
// 9,800 edges at scale 1), pinned to Hadoop so the WHILE driver loops one
// job pair per iteration through the DFS.
func pageRankLoop(seed int64, scale float64) *libWorkload {
	g := genGraph(seed, max(int(240*scale), 16), int(9_800*scale))
	v, e := g.relations()
	want := pageRank(g, pageRankIterations)
	cat := musketeer.Catalog{
		"vertices": {Path: "in/graph/vertices", Schema: gasVertexSchema},
		"edges":    {Path: "in/graph/edges", Schema: gasEdgeSchema},
	}
	return &libWorkload{
		name:   "pagerank-loop",
		output: "pagerank",
		engine: "hadoop",
		inputs: map[string]*musketeer.Relation{"in/graph/vertices": v, "in/graph/edges": e},
		compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
			return m.CompileGAS(pageRankGAS, cat, musketeer.GASConfig{Vertices: "vertices", Edges: "edges", Output: "pagerank"})
		},
		verify: func(out *musketeer.Relation) error {
			return checkKeyedFloats(out, "vertex", "vertex_value", want)
		},
	}
}

// wfOutcome is one submitted workflow as the client saw it.
type wfOutcome struct {
	latency time.Duration
	engines string
	err     error
}

// execute is one untraced submit-to-result: compile → Execute → ReadOutput,
// then the oracle check (outside the latency).
func (w *libWorkload) execute(m *musketeer.Musketeer) wfOutcome {
	start := time.Now()
	wf, err := w.compile(m)
	if err != nil {
		return wfOutcome{err: err}
	}
	var res *musketeer.Result
	if w.engine == "" {
		res, err = wf.Execute()
	} else {
		res, err = wf.ExecuteOn(w.engine)
	}
	if err != nil {
		return wfOutcome{err: err}
	}
	out, err := m.ReadOutput(w.output)
	if err != nil {
		return wfOutcome{err: err}
	}
	o := wfOutcome{latency: time.Since(start), engines: engineSet(res.Partitioning)}
	if err := w.verify(out); err != nil {
		o.err = fmt.Errorf("oracle mismatch: %w", err)
	}
	return o
}

func engineSet(p *musketeer.Partitioning) string {
	return fmt.Sprint(p.Engines())
}

// deploy creates a deployment, stages the inputs, and warms it until the
// calibration version holds still for two consecutive rounds.
func (w *libWorkload) deploy(traced bool) (*musketeer.Musketeer, warmup, error) {
	start := time.Now()
	var opts []musketeer.Option
	if traced {
		opts = append(opts, musketeer.WithTracing())
	}
	m := musketeer.New(opts...)
	for path, rel := range w.inputs {
		if err := m.WriteInput(path, rel); err != nil {
			return nil, warmup{}, fmt.Errorf("staging %s: %w", path, err)
		}
	}
	wu, err := warm(m, func() wfOutcome { return w.execute(m) })
	wu.setup = time.Since(start)
	return m, wu, err
}

// warmup reports how a deployment settled.
type warmup struct {
	setup   time.Duration
	rounds  int
	settled bool
	// engines lists the engine set of every warm-up round, in order.
	engines []string
}

// maxWarmRounds caps warm-up; a deployment whose calibration is still
// moving after it is reported as unsettled, not hidden.
const maxWarmRounds = 60

// warm runs rounds until the calibration version is unchanged across two
// consecutive rounds. Any failed round aborts the set-up.
func warm(m *musketeer.Musketeer, round func() wfOutcome) (warmup, error) {
	var wu warmup
	still := 0
	for wu.rounds < maxWarmRounds && still < 2 {
		v := m.Calibration().Version()
		o := round()
		wu.rounds++
		if o.err != nil {
			return wu, fmt.Errorf("warm-up round %d: %w", wu.rounds, o.err)
		}
		wu.engines = append(wu.engines, o.engines)
		if m.Calibration().Version() == v {
			still++
		} else {
			still = 0
		}
	}
	wu.settled = still >= 2
	return wu, nil
}

// tracedOnce is one traced workflow: the same pipeline as execute, split
// into its public calls (compile, optimize, plan, run, read) with a span
// around each, then side probes of layers the pipeline does not call
// (analysis, canonical key, bare kernels, codec) outside the workflow span.
func (w *libWorkload) tracedOnce(m *musketeer.Musketeer, tr *tracer, id int64, env exec.Env, pr *probeStats) wfOutcome {
	root := tr.start(nil, id, "workflow")
	var wf *musketeer.Workflow
	var err error
	begin := time.Now()
	tr.timed(root, id, "frontends.compile", func() { wf, err = w.compile(m) })
	if err != nil {
		return wfOutcome{err: err}
	}
	tr.timed(root, id, "core.optimize", func() { wf.Optimize() })
	var part *musketeer.Partitioning
	explored := m.Metrics().Counter("partition_candidates_explored_total")
	before := explored.Value()
	tr.timed(root, id, "core.partition", func() {
		if w.engine == "" {
			part, err = wf.Plan()
		} else {
			part, err = wf.PlanFor(w.engine)
		}
	})
	if err != nil {
		return wfOutcome{err: err}
	}
	pr.candidates = append(pr.candidates, float64(explored.Value()-before))
	run := tr.start(root, id, "core.run")
	res, err := wf.Run(part)
	run.end()
	if err != nil {
		return wfOutcome{err: err}
	}
	tr.importFlight(run, res.Flight)
	var out *musketeer.Relation
	tr.timed(root, id, "dfs.read_output", func() { out, err = m.ReadOutput(w.output) })
	if err != nil {
		return wfOutcome{err: err}
	}
	o := wfOutcome{latency: time.Since(begin), engines: engineSet(res.Partitioning)}
	root.end()
	if err := w.verify(out); err != nil {
		o.err = fmt.Errorf("oracle mismatch: %w", err)
		return o
	}

	probe := tr.start(nil, id, "probe")
	defer probe.end()
	tr.timed(probe, id, "analysis.check", func() { wf.Check() })
	engs := engines.StandardEngines()
	if w.engine != "" {
		engs = []*engines.Engine{engines.Registry()[w.engine]}
	}
	tr.timed(probe, id, "ir.plan_key", func() { core.PlanKey(wf.DAG(), engs) })
	// Bare kernels: the optimized DAG of a fresh compile over in-memory
	// inputs — no DFS, no codec, no scheduler.
	bare, err := w.compile(m)
	if err != nil {
		o.err = err
		return o
	}
	bare.Optimize()
	var kenv exec.Env
	tr.timed(probe, id, "exec.run_dag", func() { kenv, _, err = exec.RunDAG(bare.DAG(), env) })
	if err != nil {
		o.err = fmt.Errorf("exec.RunDAG: %w", err)
		return o
	}
	if err := w.verify(kenv[w.output]); err != nil {
		o.err = fmt.Errorf("oracle mismatch on exec.RunDAG: %w", err)
		return o
	}
	if err := pr.codec(tr, probe, id, w.inputs); err != nil {
		o.err = err
	}
	return o
}

// probeStats accumulates probe results that are not span durations.
type probeStats struct {
	candidates           []float64
	encodeMBs, decodeMBs []float64
}

// add appends another collector's results.
func (pr *probeStats) add(o probeStats) {
	pr.candidates = append(pr.candidates, o.candidates...)
	pr.encodeMBs = append(pr.encodeMBs, o.encodeMBs...)
	pr.decodeMBs = append(pr.decodeMBs, o.decodeMBs...)
}

// codec times EncodeBytes and DecodeBytes over each relation and records
// the throughput over the encoded size.
func (pr *probeStats) codec(tr *tracer, parent *openSpan, id int64, rels map[string]*musketeer.Relation) error {
	var encoded int64
	var encT, decT time.Duration
	for _, rel := range rels {
		var data []byte
		var err error
		encT += tr.timed(parent, id, "relation.tsv_encode", func() { data = rel.EncodeBytes() })
		decT += tr.timed(parent, id, "relation.tsv_decode", func() { _, err = relation.DecodeBytes(rel.Name, data) })
		if err != nil {
			return fmt.Errorf("probe DecodeBytes: %w", err)
		}
		encoded += int64(len(data))
	}
	if encT > 0 && decT > 0 {
		pr.encodeMBs = append(pr.encodeMBs, float64(encoded)/1e6/encT.Seconds())
		pr.decodeMBs = append(pr.decodeMBs, float64(encoded)/1e6/decT.Seconds())
	}
	return nil
}

// memEnv binds the inputs by DFS path for exec.RunDAG.
func (w *libWorkload) memEnv() exec.Env {
	env := exec.Env{}
	for path, rel := range w.inputs {
		env[path] = rel.Clone()
	}
	return env
}

// phaseResult is one measured closed-loop phase.
type phaseResult struct {
	latencies []float64 // ms, completed and verified workflows only
	engines   []string
	completed int
	wall      time.Duration
	counters  phaseCounters
}

// measure runs the untraced closed loop for d.
func (w *libWorkload) measure(m *musketeer.Musketeer, d time.Duration, rep *report) phaseResult {
	var ph phaseResult
	before := readCounters(m)
	ph.wall = untilDeadline(d, func() {
		rep.attempted++
		o := w.execute(m)
		if o.err != nil {
			rep.fail(o.err)
			return
		}
		ph.completed++
		ph.latencies = append(ph.latencies, ms(o.latency))
		ph.engines = append(ph.engines, o.engines)
	})
	ph.counters = diffCounters(before, readCounters(m), ph.completed)
	return ph
}

// round is one set-up followed by its share of the measured loop.
type round struct {
	warm  warmup
	phase phaseResult
	// heapMB is the process's live heap after a forced collection right
	// after set-up, with the round's deployment alive.
	heapMB float64
	// deployment is the round's deployment, which the next round's heap
	// baseline waits to see collected.
	deployment *musketeer.Musketeer
}

// awaitCollected forces collections until the deployment whose release
// closes gone has been garbage collected, for at most a second, so a heap
// baseline taken next no longer counts it (a stopped server's goroutines
// drop their references a moment after stop returns). It reports whether
// the deployment was collected.
func awaitCollected(gone <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-gone:
			return true
		case <-time.After(50 * time.Millisecond):
		}
	}
	return false
}

// runInterleaved runs n rounds of set-up then measurement, each measuring
// d/n, so set-up and measurement are both sampled across the whole run
// instead of in one stretch of the host's varying speed. Every end-to-end
// metric is the median of its per-round values, so one round caught in a
// burst of host contention does not move the run's figure; the sample
// counts printed are the pooled ones.
//
// heap_after_gc_mb is the live heap the deployment holds once set up:
// inputs plus the residue of a fixed amount of work (staging and the
// warm-up rounds). Taking it after fixed work rather than after the timed
// loop keeps a faster program from being charged for the extra workflows
// it fits into the measured seconds.
func runInterleaved(rep *report, n int, d time.Duration, run func(d time.Duration) (round, error)) (phaseResult, error) {
	var pooled phaseResult
	var setups, heaps, tput, p50, p90 []float64
	var gone chan struct{} // closed once the previous round's deployment is collected
	for i := 0; i < n; i++ {
		// The benchmark's own inputs and oracles stay live throughout, so
		// the heap the deployment holds is measured against a baseline
		// taken before it exists and after its predecessor is gone.
		if gone != nil && !awaitCollected(gone) {
			rep.note("round %d: the previous round's deployment was still live 1s after it ended", i+1)
		}
		base := heapAfterGC()
		r, err := run(d / time.Duration(n))
		if err != nil {
			return pooled, err
		}
		done := make(chan struct{})
		runtime.SetFinalizer(r.deployment, func(*musketeer.Musketeer) { close(done) })
		gone = done
		setups = append(setups, r.warm.setup.Seconds())
		heaps = append(heaps, r.heapMB-base)
		tput = append(tput, float64(r.phase.completed)/r.phase.wall.Seconds())
		p50 = append(p50, median(r.phase.latencies))
		p90 = append(p90, quantile(r.phase.latencies, 0.9))
		rep.note("round %d: set-up %.3fs, %d warm-up rounds, calibration settled=%v; measured %d workflows",
			i+1, r.warm.setup.Seconds(), r.warm.rounds, r.warm.settled, r.phase.completed)
		for _, f := range engineFlips(r.warm.engines) {
			rep.note("round %d: plan changed during warm-up: %s", i+1, f)
		}
		pooled.latencies = append(pooled.latencies, r.phase.latencies...)
		pooled.engines = append(pooled.engines, r.phase.engines...)
		pooled.completed += r.phase.completed
		pooled.wall += r.phase.wall
		pooled.counters.calBumps += r.phase.counters.calBumps
	}
	rep.set("setup_s", median(setups), n)
	rep.set("heap_after_gc_mb", median(heaps), n)
	rep.set("wf_per_s", median(tput), pooled.completed)
	rep.set("latency_p50_ms", median(p50), len(pooled.latencies))
	rep.set("latency_p90_ms", median(p90), len(pooled.latencies))
	rep.note("calibration bumps while measuring: %g", pooled.counters.calBumps)
	plans := map[string]int{}
	for _, e := range pooled.engines {
		plans[e]++
	}
	rep.note("engine sets of the measured plans: %v", plans)
	for _, f := range engineFlips(pooled.engines) {
		rep.note("engine flip while measuring: %s", f)
	}
	return pooled, nil
}

func runLibrary(w *libWorkload, o options) (*report, error) {
	rep := newReport(w.name)
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return w.runTraced(rep, o, d)
	}
	_, err := runInterleaved(rep, o.setups, d, func(d time.Duration) (round, error) {
		m, wu, err := w.deploy(false)
		if err != nil {
			return round{}, err
		}
		r := round{warm: wu, heapMB: heapAfterGC(), deployment: m}
		r.phase = w.measure(m, d, rep)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// runTraced splits the run in two halves on separate deployments: an
// untraced half, which gives the counter-based layer metrics and the
// latency the tracing overhead is measured against, and a traced half
// (WithTracing, plus the benchmark's own spans), which gives the rest.
func (w *libWorkload) runTraced(rep *report, o options, d time.Duration) (*report, error) {
	m, _, err := w.deploy(false)
	if err != nil {
		return nil, err
	}
	plain := w.measure(m, d/2, rep)
	tm, _, err := w.deploy(true)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	env := w.memEnv()
	var pr probeStats
	var traced []float64
	var id int64
	untilDeadline(d/2, func() {
		id++
		rep.attempted++
		out := w.tracedOnce(tm, tr, id, env, &pr)
		if out.err != nil {
			rep.fail(out.err)
			return
		}
		traced = append(traced, ms(out.latency))
	})
	layerMetrics(rep, tr, plain, traced, &pr)
	if err := tr.write(filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))); err != nil {
		return nil, err
	}
	return rep, nil
}

// layerMetrics derives the per-layer metrics shared by every workload
// from the spans and the untraced phase's counters.
func layerMetrics(rep *report, tr *tracer, plain phaseResult, traced []float64, pr *probeStats) {
	spans := tr.all()
	self := selfTimes(spans)
	setMedian := func(name string, xs []float64) { rep.set(name, median(xs), len(xs)) }
	setMedian("frontends.compile_ms", durationsMS(spans, "frontends.compile"))
	setMedian("analysis.check_ms", durationsMS(spans, "analysis.check"))
	setMedian("core.optimize_ms", durationsMS(spans, "core.optimize"))
	setMedian("ir.plan_key_ms", durationsMS(spans, "ir.plan_key"))
	setMedian("core.partition_ms", durationsMS(spans, "core.partition"))
	setMedian("core.partition_candidates", pr.candidates)
	setMedian("core.run_ms", durationsMS(spans, "core.run"))
	setMedian("core.while_iteration_ms", durationsMS(spans, "program.while/iteration"))
	setMedian("engines.pull_ms", perWorkflowSelfMS(spans, self, "program.phase/pull"))
	setMedian("engines.process_ms", perWorkflowSelfMS(spans, self, "program.phase/process"))
	setMedian("engines.push_ms", perWorkflowSelfMS(spans, self, "program.phase/push"))
	setMedian("exec.run_dag_ms", durationsMS(spans, "exec.run_dag"))
	setMedian("relation.tsv_decode_mb_s", pr.decodeMBs)
	setMedian("relation.tsv_encode_mb_s", pr.encodeMBs)
	pc := plain.counters
	rep.set("core.plancache_hit_ratio", pc.hitRatio(), int(pc.hits+pc.misses))
	rep.set("core.calibration_bumps", pc.calBumps, plain.completed)
	rep.set("sched.jobs_per_wf", pc.jobsPerWF, plain.completed)
	rep.set("sched.queue_wait_ms", pc.queueWaitP50MS, plain.completed)
	rep.set("dfs.pull_bytes_per_wf", pc.pullBytesPerWF, plain.completed)
	rep.set("dfs.push_bytes_per_wf", pc.pushBytesPerWF, plain.completed)
	rep.set("gc.alloc_mb_per_wf", pc.allocMBPerWF, plain.completed)
	rep.set("gc.cpu_frac", pc.gcCPUFrac, plain.completed)
	if p := median(plain.latencies); p > 0 && len(traced) > 0 {
		rep.set("obs.trace_overhead_frac", median(traced)/p-1, len(traced))
	}
	rep.note("plan-cache hit ratio base: %d lookups", pc.hits+pc.misses)
	for _, f := range engineFlips(plain.engines) {
		rep.note("engine flip while measuring: %s", f)
	}
}
