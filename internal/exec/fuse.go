package exec

import (
	"fmt"
	"runtime"
	"sync"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// This file is the pipeline driver: it plans SELECT/PROJECT/ARITH/
// JOIN-probe(/terminal AGG) chains over a topologically-ordered operator
// list and runs each chain as one streaming pipeline (stream.go). A chain
// is maximal — an operator streams through to the next member, never
// materializing, when that member is its only consumer and the caller does
// not Keep it — and a lone operator is a chain of one, so the pipeline is
// the only implementation of these five operators. Elided members are
// metered by accTaps and the chain walk (account) records every member's
// volumes the same way, so the trace — and every simulated cost, golden
// trace, and history entry downstream — does not depend on which members
// materialized.

// RunOptions parameterizes a RunOps evaluation.
type RunOptions struct {
	// Keep marks operators whose outputs must materialize into the
	// environment even when a chain could stream through them (fragment
	// external outputs, or every operator for RunDAG). WHILE bodies apply
	// it on top of the relations each iteration must keep. nil keeps
	// nothing extra: every eligible interior operator streams.
	Keep func(*ir.Op) bool
	// BatchRows overrides the pipeline batch size
	// (relation.DefaultBatchRows). Tests force tiny batches.
	BatchRows int
	// Check runs before each execution unit (a chain or a single
	// operator); a non-nil error aborts the run. Engines use it for
	// cancellation.
	Check func() error
	// SkipInputs skips OpInput operators instead of resolving them
	// (engines bind external inputs into env themselves).
	SkipInputs bool
}

// RunOps evaluates ops — which must already be in topological order —
// against env, running SELECT/PROJECT/ARITH/JOIN/AGG as streaming chains.
// Results of non-elided operators land in env under their output names;
// trace (which may be nil) records every operator's volumes, elided ones
// included.
func RunOps(ops []*ir.Op, env Env, trace *Trace, opts RunOptions) error {
	chains := planChains(ops, opts.Keep)
	for _, op := range ops {
		if opts.SkipInputs && op.Type == ir.OpInput {
			continue
		}
		c := chains[op]
		if c != nil && c[len(c)-1] != op {
			continue // streams inside its chain, which runs at its last member
		}
		if opts.Check != nil {
			if err := opts.Check(); err != nil {
				return err
			}
		}
		var rel *relation.Relation
		var err error
		if c != nil {
			rel, err = runChain(c, env, trace, opts)
		} else {
			rel, err = runOp(op, env, trace, opts)
		}
		if err != nil {
			return err
		}
		env[op.Out] = rel
	}
	return nil
}

// chainable reports whether operators of type t run through the streaming
// pipeline. AGG is the pipeline's sink, so it always ends its chain.
func chainable(t ir.OpType) bool {
	switch t {
	case ir.OpSelect, ir.OpProject, ir.OpArith, ir.OpJoin, ir.OpAgg:
		return true
	}
	return false
}

// planChains partitions the chainable operators of ops into maximal chains
// and maps every member to its chain (in topological order). An operator
// streams into the next member only when that member is its single
// consumer edge and the caller does not Keep it; a consumer reading the
// same producer twice (self join) contributes two edges, which ends the
// chain. Joins extend a chain only through their probe (first) input: the
// build side is always a materialized relation.
func planChains(ops []*ir.Op, keep func(*ir.Op) bool) map[*ir.Op][]*ir.Op {
	cons := make(map[*ir.Op][]*ir.Op)
	for _, op := range ops {
		for _, in := range op.Inputs {
			cons[in] = append(cons[in], op)
		}
	}
	chains := make(map[*ir.Op][]*ir.Op)
	for _, op := range ops {
		if chains[op] != nil || !chainable(op.Type) {
			continue
		}
		c := []*ir.Op{op}
		for cur := op; cur.Type != ir.OpAgg && (keep == nil || !keep(cur)); {
			edges := cons[cur]
			if len(edges) != 1 || !chainable(edges[0].Type) || edges[0].Inputs[0] != cur {
				break
			}
			cur = edges[0]
			c = append(c, cur)
		}
		for _, m := range c {
			chains[m] = c
		}
	}
	return chains
}

// stagePlan is one chain member resolved against its input schemas. The
// plan is immutable once built, so concurrent chunk pipelines share it.
type stagePlan struct {
	op       *ir.Op
	inSch    relation.Schema
	sch      relation.Schema
	pred     *ir.Pred // SELECT
	idx      []int    // PROJECT
	dstIdx   int      // ARITH; -1 appends
	js       joinSpec // JOIN
	build    *joinTable
	buildRel *relation.Relation
	buildIn  flow
	ag       aggSpec // AGG
}

// runChain runs one chain against env: the head streams its first input,
// and every JOIN member probes a table built on its second.
func runChain(c []*ir.Op, env Env, trace *Trace, opts RunOptions) (*relation.Relation, error) {
	specs := make([]stagePlan, len(c))
	for i, op := range c {
		specs[i].op = op
		if op.Type == ir.OpJoin {
			b, err := boundInput(env, op, 1)
			if err != nil {
				return nil, err
			}
			specs[i].buildRel = b
		}
	}
	src, err := boundInput(env, c[0], 0)
	if err != nil {
		return nil, err
	}
	return execChain(specs, src, trace, opts)
}

// boundInput returns op's i-th input relation from env.
func boundInput(env Env, op *ir.Op, i int) (*relation.Relation, error) {
	rel, ok := env[op.Inputs[i].Out]
	if !ok {
		return nil, fmt.Errorf("exec: %s: input relation %q not materialized", op, op.Inputs[i].Out)
	}
	return rel, nil
}

// execChain executes one chain over src: it resolves every member, streams
// src's rows through the composed pipeline (chunk-parallel above
// ParallelThreshold), materializes only the last member's output, and
// walks the chain to account every member.
func execChain(specs []stagePlan, src *relation.Relation, trace *Trace, opts RunOptions) (*relation.Relation, error) {
	n := len(specs)
	head := relFlow(src, trace)
	// Sizes are only needed when a trace records them or a scale ratio
	// turns them into logical sizes; otherwise metering would render every
	// row to text for nothing.
	meter := trace != nil || head.ratio > 1
	prev := src.Schema
	for i := range specs {
		sp := &specs[i]
		op := sp.op
		sp.inSch, sp.dstIdx = prev, -1
		schemas := map[*ir.Op]relation.Schema{op.Inputs[0]: prev}
		if op.Type == ir.OpJoin {
			sp.buildIn = relFlow(sp.buildRel, trace)
			meter = meter || sp.buildIn.ratio > 1
			schemas[op.Inputs[1]] = sp.buildRel.Schema
		}
		sch, err := ir.OutputSchema(op, schemas)
		if err != nil {
			return nil, err
		}
		sp.sch = sch
		switch op.Type {
		case ir.OpSelect:
			sp.pred = op.Params.Pred
		case ir.OpProject:
			sp.idx = make([]int, len(op.Params.Columns))
			for k, col := range op.Params.Columns {
				sp.idx[k] = prev.Index(col)
			}
		case ir.OpArith:
			sp.dstIdx = prev.Index(op.Params.Dst)
		case ir.OpJoin:
			js, err := resolveJoinSpec(op, prev, sp.buildRel.Schema)
			if err != nil {
				return nil, err
			}
			sp.js = js
			sp.build = buildJoinTable(sp.buildRel.Rows, js.rIdx)
		case ir.OpAgg:
			ag, err := resolveAggSpec(op, prev)
			if err != nil {
				return nil, err
			}
			sp.ag = ag
		}
		prev = sch
	}

	// A single chunk runs inline, its result slot on the stack.
	var single [1]chainChunk
	chunks := single[:]
	if ranges := parallelRanges(len(src.Rows)); len(ranges) > 1 {
		par := make([]chainChunk, len(ranges))
		var wg sync.WaitGroup
		for i, rg := range ranges {
			wg.Add(1)
			go func(c *chainChunk, rows []relation.Row, meter bool) {
				defer wg.Done()
				c.run(specs, src.Schema, rows, meter, opts.BatchRows)
			}(&par[i], src.Rows[rg[0]:rg[1]], meter)
		}
		wg.Wait()
		chunks = par
	} else {
		chunks[0].run(specs, src.Schema, src.Rows, meter, opts.BatchRows)
	}

	// Merge chunk results in chunk order, which preserves the serial row
	// order (chunks are contiguous input ranges) and the serial group
	// first-appearance order.
	for i := range chunks {
		if chunks[i].err != nil {
			return nil, chunks[i].err
		}
	}
	last := &specs[n-1]
	out := relation.New(last.op.Out, last.sch)
	first := &chunks[0]
	for _, c := range chunks[1:] {
		for i := range first.taps {
			first.taps[i].rows += c.taps[i].rows
			first.taps[i].phys += c.taps[i].phys
		}
		if last.op.Type == ir.OpAgg {
			first.inRows += c.inRows
			first.table.absorb(c.table)
		}
	}
	switch {
	case last.op.Type == ir.OpAgg:
		emitAggRows(last.op, last.inSch, last.ag, first.table, first.inRows, out)
	case len(chunks) == 1:
		out.Rows = first.rows
	default:
		total := 0
		for _, c := range chunks {
			total += len(c.rows)
		}
		out.Rows = make([]relation.Row, 0, total)
		for _, c := range chunks {
			out.Rows = append(out.Rows, c.rows...)
		}
	}

	// The chain walk: each member consumes the previous member's output
	// (and a JOIN its build side too) and produces its own, metered by its
	// tap when elided and sized directly when it is the chain's output. An
	// unmetered chain has no trace and no scale ratio, so its sizes stay 0.
	in := head
	for i := range specs {
		sp := &specs[i]
		var phys int64
		rows := len(out.Rows)
		switch {
		case i < len(first.taps):
			phys, rows = first.taps[i].phys, first.taps[i].rows
		case i == n-1 && meter:
			phys = out.PhysicalBytes()
		}
		var logical int64
		if sp.op.Type == ir.OpJoin {
			logical, in = account(trace, sp.op, phys, rows, in, sp.buildIn)
		} else {
			logical, in = account(trace, sp.op, phys, rows, in)
		}
		if i == n-1 {
			out.LogicalBytes = logical
		}
	}
	return out, nil
}

// parallelRanges splits an n-row chain input into chunk ranges, or returns
// nil when the input is below ParallelThreshold or there is one core.
func parallelRanges(n int) [][2]int {
	if n < ParallelThreshold || runtime.GOMAXPROCS(0) == 1 {
		return nil
	}
	return chunkRanges(n)
}

// chainChunk is one pipeline instance's share of a chain: what the
// pipeline produced from a contiguous range of the head's input.
type chainChunk struct {
	rows   []relation.Row // the chain's output rows (non-AGG chains)
	table  *aggTable      // partial aggregation (AGG chains)
	inRows int            // rows the aggregation sink consumed
	taps   []accTap       // one per elided member; nil when unmetered
	err    error
}

// run streams in through one pipeline instance.
func (c *chainChunk) run(specs []stagePlan, srcSch relation.Schema, in []relation.Row, meter bool, batchRows int) {
	n := len(specs)
	if meter && n > 1 {
		c.taps = make([]accTap, n-1)
	}
	last := &specs[n-1]
	if last.op.Type == ir.OpAgg {
		pipe := buildPipeline(specs[:n-1], srcSch, in, batchRows, c.taps, valArena{})
		c.table = newAggTable()
		c.inRows, c.err = drainAgg(pipe, c.table, last.ag.gIdx, last.ag.aIdx)
		return
	}
	// The rows of the last constructing stage escape into the output, so
	// its arena is durable. A chain that keeps every row emits exactly one
	// output row per input row: size its output once, and let the sink
	// append each batch into the block it was carved from.
	final := valArena{durable: true}
	var dst []relation.Row
	if keepsRows(specs) {
		final.hdrs = make([]relation.Row, len(in))
		final.vals = make([]relation.Value, len(in)*last.sch.Arity())
		dst = final.hdrs[:0]
	}
	pipe := buildPipeline(specs, srcSch, in, batchRows, c.taps, final)
	c.rows, c.err = drainRows(pipe, dst)
}

// keepsRows reports whether a chain emits exactly one row per input row.
func keepsRows(specs []stagePlan) bool {
	for i := range specs {
		if t := specs[i].op.Type; t != ir.OpProject && t != ir.OpArith {
			return false
		}
	}
	return true
}

// buildPipeline composes one pipeline instance over a scan range. The
// chain's leading SELECTs and an immediately following PROJECT fold into
// the scan itself (predicate and projection pushdown); every other member
// becomes a stage. taps[i] meters member i; members past the end of taps
// are unmetered. final becomes the arena of the last constructing stage.
func buildPipeline(specs []stagePlan, srcSch relation.Schema, in []relation.Row, batchRows int, taps []accTap, final valArena) *stage {
	tap := func(i int) *accTap {
		if i < len(taps) {
			return &taps[i]
		}
		return nil
	}
	k := 0
	for k < len(specs) && specs[k].op.Type == ir.OpSelect {
		k++
	}
	next := k
	if k < len(specs) && specs[k].op.Type == ir.OpProject {
		next++
	}
	stages := make([]stage, 1+len(specs)-next)
	scan := &stages[0]
	scan.in, scan.inSch, scan.batchRows, scan.sels = in, srcSch, batchRows, specs[:k]
	scan.selTaps = taps[:min(k, len(taps))]
	if next > k {
		scan.plan, scan.tap = &specs[k], tap(k)
	}
	for i := next; i < len(specs); i++ {
		st := &stages[1+i-next]
		st.plan, st.src, st.tap = &specs[i], &stages[i-next], tap(i)
	}
	for i := len(stages) - 1; i >= 0; i-- {
		if p := stages[i].plan; p != nil && p.op.Type != ir.OpSelect {
			stages[i].ar = final
			break
		}
	}
	return &stages[len(stages)-1]
}

// flow is what accounting needs from one operator input: its effective
// size (charged to the trace) and its logical/physical scale ratio
// (propagated to the output's logical size).
type flow struct {
	eff   int64
	ratio float64
}

// relFlow measures a materialized input. The effective size renders rows
// to text when no logical size is set, so it is only taken for a trace.
func relFlow(r *relation.Relation, trace *Trace) flow {
	f := flow{ratio: r.ScaleRatio()}
	if trace != nil {
		f.eff = r.EffectiveBytes()
	}
	return f
}

// account is the one accounting routine of every operator evaluation. It
// charges the inputs' effective sizes to op's PROCESS and shuffle volumes,
// derives the output's logical size — phys times the dominant input scale
// ratio, since workload generators downscale all inputs by a common factor
// — and records the output's effective size and row count. It returns the
// logical size (0 when unscaled) and the output's flow, exactly what a
// materialized output's EffectiveBytes and ScaleRatio would report. phys
// may be 0 when neither a trace nor a ratio needs it.
func account(trace *Trace, op *ir.Op, phys int64, rows int, ins ...flow) (int64, flow) {
	ratio := 1.0
	for _, in := range ins {
		if trace != nil {
			trace.ProcBytes[op.ID] += in.eff
			trace.InBytes[op.ID] += in.eff
		}
		if in.ratio > ratio {
			ratio = in.ratio
		}
	}
	var logical int64
	if ratio > 1 {
		logical = int64(float64(phys) * ratio)
	}
	out := flow{eff: phys, ratio: 1}
	if logical > 0 {
		out.eff = logical
		if phys > 0 {
			out.ratio = float64(logical) / float64(phys)
		}
	}
	if trace != nil {
		trace.OutBytes[op.ID] = out.eff
		trace.OutRows[op.ID] = rows
		// PROCESS volume covers produced data too: materializing a
		// generative operator's output is real work.
		trace.ProcBytes[op.ID] += out.eff
	}
	return logical, out
}
