package exec

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// The pipeline equivalence suite: every chain shape must produce the
// naive reference's relations (naive_test.go) through every entry point —
// EvalOp operator by operator, RunDAG, RunOps keeping every operator (each
// a chain of one), and RunOps keeping only the sink (maximal chains) — at
// adversarially tiny batch sizes (1–3 rows, so every stage boundary and
// arena-reuse path is crossed many times) and with chunk-parallel
// pipelines forced on. Traces must not depend on where chains break.

func streamRelation(rows int) *relation.Relation {
	rel := relation.New("src", relation.NewSchema("k:int", "v:int", "s:string", "f:float"))
	words := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < rows; i++ {
		rel.MustAppend(relation.Row{
			relation.Int(int64(i % 7)),
			relation.Int(int64(i)),
			relation.Str(words[i%len(words)]),
			relation.Float(float64(i) * 1.5),
		})
	}
	rel.LogicalBytes = rel.PhysicalBytes() * 50
	return rel
}

func streamBuildSide(rows int) *relation.Relation {
	rel := relation.New("dim", relation.NewSchema("k:int", "label:string"))
	for i := 0; i < rows; i++ {
		rel.MustAppend(relation.Row{relation.Int(int64(i)), relation.Str(fmt.Sprintf("label-%d", i))})
	}
	rel.LogicalBytes = rel.PhysicalBytes() * 10
	return rel
}

// streamWords is a string-keyed build side; "beta" has no entry, so joins
// on it drop rows.
func streamWords() *relation.Relation {
	rel := relation.New("words", relation.NewSchema("word:string", "weight:float"))
	for i, w := range []string{"alpha", "gamma", "delta", "omega"} {
		rel.MustAppend(relation.Row{relation.Str(w), relation.Float(0.5 + float64(i))})
	}
	return rel
}

// streamDup is a build side with heavily duplicated join keys.
func streamDup() *relation.Relation {
	rel := relation.New("dup", relation.NewSchema("k:int", "w:int"))
	for i := 0; i < 21; i++ {
		rel.MustAppend(relation.Row{relation.Int(int64(i % 3)), relation.Int(int64(i))})
	}
	rel.LogicalBytes = rel.PhysicalBytes() * 20
	return rel
}

func streamInputs(src *relation.Relation) Env {
	return Env{"src": src, "dim": streamBuildSide(7), "words": streamWords(), "dup": streamDup()}
}

// chainCase builds one DAG shape. keep names the relations a consumer
// outside the chain reads (always includes the sink).
type chainCase struct {
	name     string
	build    func(d *ir.DAG) // add ops to a DAG that has inputs src, dim, words and dup
	keep     []string
	emptySrc bool // run over a src with no rows
}

func pred(col string, op ir.CmpOp, v int64) *ir.Pred {
	return ir.Cmp(ir.ColRef(col), op, ir.LitOp(relation.Int(v)))
}

func streamCases() []chainCase {
	return []chainCase{
		{
			name: "select-project",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("v", ir.CmpGt, 3)}, in)
				d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"k", "v"}}, s)
			},
			keep: []string{"slim"},
		},
		{
			name: "select-arith",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, in)
				d.Add(ir.OpArith, "scaled", ir.Params{Dst: "f", ALeft: ir.ColRef("f"), ARght: ir.LitOp(relation.Float(0.85)), AOp: ir.ArithMul}, s)
			},
			keep: []string{"scaled"},
		},
		{
			name: "arith-new-column-chain",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				a := d.Add(ir.OpArith, "plus", ir.Params{Dst: "v2", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(10)), AOp: ir.ArithAdd}, in)
				d.Add(ir.OpArith, "twice", ir.Params{Dst: "v2", ALeft: ir.ColRef("v2"), ARght: ir.LitOp(relation.Int(2)), AOp: ir.ArithMul}, a)
			},
			keep: []string{"twice"},
		},
		{
			name: "multi-select-project",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s1 := d.Add(ir.OpSelect, "s1", ir.Params{Pred: pred("v", ir.CmpGt, 1)}, in)
				s2 := d.Add(ir.OpSelect, "s2", ir.Params{Pred: pred("k", ir.CmpLt, 6)}, s1)
				d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"s", "v"}}, s2)
			},
			keep: []string{"slim"},
		},
		{
			name: "project-agg",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				p := d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"k", "v"}}, in)
				d.Add(ir.OpAgg, "sums", ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "v", As: "total"}}}, p)
			},
			keep: []string{"sums"},
		},
		{
			name: "select-project-agg",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("v", ir.CmpGt, 2)}, in)
				p := d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"s", "f"}}, s)
				d.Add(ir.OpAgg, "stats", ir.Params{GroupBy: []string{"s"}, Aggs: []ir.AggSpec{{Func: ir.AggMax, Col: "f", As: "hi"}}}, p)
			},
			keep: []string{"stats"},
		},
		{
			name: "global-agg-terminal",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s := d.Add(ir.OpSelect, "none", ir.Params{Pred: pred("v", ir.CmpLt, -1)}, in)
				d.Add(ir.OpAgg, "count", ir.Params{Aggs: []ir.AggSpec{{Func: ir.AggCount, Col: "v", As: "n"}}}, s)
			},
			keep: []string{"count"},
		},
		{
			name: "join-select",
			build: func(d *ir.DAG) {
				in, dim := d.ByOut("src"), d.ByOut("dim")
				j := d.Add(ir.OpJoin, "joined", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, in, dim)
				d.Add(ir.OpSelect, "hotjoin", ir.Params{Pred: pred("v", ir.CmpGt, 4)}, j)
			},
			keep: []string{"hotjoin"},
		},
		{
			name: "select-join-agg",
			build: func(d *ir.DAG) {
				in, dim := d.ByOut("src"), d.ByOut("dim")
				s := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("v", ir.CmpGt, 1)}, in)
				j := d.Add(ir.OpJoin, "joined", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, s, dim)
				d.Add(ir.OpAgg, "bylabel", ir.Params{GroupBy: []string{"label"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "v", As: "total"}}}, j)
			},
			keep: []string{"bylabel"},
		},
		{
			name: "kept-intermediate-breaks-chain",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("v", ir.CmpGt, 3)}, in)
				d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"k", "v"}}, s)
			},
			keep: []string{"hot", "slim"},
		},
		{
			name: "self-join-head",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				j := d.Add(ir.OpJoin, "pairs", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, in, in)
				d.Add(ir.OpSelect, "later", ir.Params{Pred: ir.Cmp(ir.ColRef("r_v"), ir.CmpGt, ir.ColRef("v"))}, j)
			},
			keep: []string{"later"},
		},
		{
			name: "global-agg-head-empty-input",
			build: func(d *ir.DAG) {
				d.Add(ir.OpAgg, "totals", ir.Params{Aggs: []ir.AggSpec{
					{Func: ir.AggCount, As: "n"},
					{Func: ir.AggSum, Col: "v", As: "total"},
					{Func: ir.AggAvg, Col: "f", As: "mean"},
					{Func: ir.AggMax, Col: "s", As: "last"},
				}}, d.ByOut("src"))
			},
			keep:     []string{"totals"},
			emptySrc: true,
		},
		{
			name: "duplicate-join-keys",
			build: func(d *ir.DAG) {
				in, dup := d.ByOut("src"), d.ByOut("dup")
				j := d.Add(ir.OpJoin, "fanout", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, in, dup)
				a := d.Add(ir.OpArith, "weighted", ir.Params{Dst: "vw", ALeft: ir.ColRef("v"), ARght: ir.ColRef("w"), AOp: ir.ArithMul}, j)
				d.Add(ir.OpProject, "narrow", ir.Params{Columns: []string{"w", "vw", "s"}}, a)
			},
			keep: []string{"narrow"},
		},
		{
			name: "string-float-columns",
			build: func(d *ir.DAG) {
				in, words := d.ByOut("src"), d.ByOut("words")
				s := d.Add(ir.OpSelect, "warm", ir.Params{Pred: ir.And(
					ir.Cmp(ir.ColRef("f"), ir.CmpGt, ir.LitOp(relation.Float(10.5))),
					ir.Cmp(ir.ColRef("s"), ir.CmpNe, ir.LitOp(relation.Str("delta"))),
				)}, in)
				j := d.Add(ir.OpJoin, "tagged", ir.Params{LeftCols: []string{"s"}, RightCols: []string{"word"}}, s, words)
				a := d.Add(ir.OpArith, "scaled", ir.Params{Dst: "f", ALeft: ir.ColRef("f"), ARght: ir.ColRef("weight"), AOp: ir.ArithMul}, j)
				d.Add(ir.OpAgg, "byword", ir.Params{GroupBy: []string{"s"}, Aggs: []ir.AggSpec{
					{Func: ir.AggMin, Col: "f", As: "lo"},
					{Func: ir.AggMax, Col: "f", As: "hi"},
					{Func: ir.AggAvg, Col: "f", As: "mean"},
					{Func: ir.AggSum, Col: "f", As: "total"},
					{Func: ir.AggCount, As: "n"},
				}}, a)
			},
			keep: []string{"byword"},
		},
	}
}

func buildStreamDAG(t *testing.T, c chainCase, inputs Env) (*ir.DAG, []*ir.Op) {
	t.Helper()
	d := ir.NewDAG()
	for _, name := range []string{"src", "dim", "words", "dup"} {
		d.AddInput(name, "in/"+name, inputs[name].Schema)
	}
	c.build(d)
	if err := d.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	return d, ops
}

func runStream(t *testing.T, ops []*ir.Op, inputs Env, opts RunOptions) (Env, *Trace) {
	t.Helper()
	env := inputs.Clone()
	trace := NewTrace()
	if err := RunOps(ops, env, trace, opts); err != nil {
		t.Fatalf("RunOps: %v", err)
	}
	return env, trace
}

// runOpByOp evaluates ops one at a time through eval (EvalOp or the naive
// reference), binding every output.
func runOpByOp(t *testing.T, ops []*ir.Op, inputs Env, eval func(*ir.Op, []*relation.Relation) (*relation.Relation, error)) Env {
	t.Helper()
	env := inputs.Clone()
	for _, op := range ops {
		if op.Type == ir.OpInput {
			continue
		}
		var in []*relation.Relation
		for _, i := range op.Inputs {
			in = append(in, env[i.Out])
		}
		out, err := eval(op, in)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		env[op.Out] = out
	}
	return env
}

func sameRelation(t *testing.T, name string, want, got *relation.Relation) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: missing", name)
	}
	if want.Schema.String() != got.Schema.String() {
		t.Fatalf("%s: schema %s vs %s", name, want.Schema, got.Schema)
	}
	if want.LogicalBytes != got.LogicalBytes {
		t.Errorf("%s: LogicalBytes %d vs %d", name, want.LogicalBytes, got.LogicalBytes)
	}
	if !bytes.Equal(want.EncodeBytesOpts(relation.CodecOptions{}), got.EncodeBytesOpts(relation.CodecOptions{})) {
		t.Fatalf("%s: rows differ\nwant:\n%s\ngot:\n%s", name,
			want.EncodeBytesOpts(relation.CodecOptions{}), got.EncodeBytesOpts(relation.CodecOptions{}))
	}
}

func sameTrace(t *testing.T, want, got *Trace) {
	t.Helper()
	if !reflect.DeepEqual(want.OutBytes, got.OutBytes) {
		t.Errorf("OutBytes: %v vs %v", want.OutBytes, got.OutBytes)
	}
	if !reflect.DeepEqual(want.OutRows, got.OutRows) {
		t.Errorf("OutRows: %v vs %v", want.OutRows, got.OutRows)
	}
	if !reflect.DeepEqual(want.ProcBytes, got.ProcBytes) {
		t.Errorf("ProcBytes: %v vs %v", want.ProcBytes, got.ProcBytes)
	}
	if !reflect.DeepEqual(want.InBytes, got.InBytes) {
		t.Errorf("InBytes: %v vs %v", want.InBytes, got.InBytes)
	}
}

// checkChainCase runs one case through every entry point at one batch
// size and compares each result with the naive reference: every relation
// where every operator is kept, the kept relations where chains stream.
// The Keep-all, RunDAG, and fused traces must agree.
func checkChainCase(t *testing.T, c chainCase, batch int) {
	t.Helper()
	src := streamRelation(97) // prime, so tiny batches end ragged
	if c.emptySrc {
		src = relation.New("src", src.Schema)
	}
	inputs := streamInputs(src)
	d, ops := buildStreamDAG(t, c, inputs)
	want := runOpByOp(t, ops, inputs, naiveEval)

	evalEnv := runOpByOp(t, ops, inputs, EvalOp)
	dagEnv, dagTrace, err := RunDAG(d, inputs)
	if err != nil {
		t.Fatalf("RunDAG: %v", err)
	}
	allEnv, allTrace := runStream(t, ops, inputs, RunOptions{Keep: keepAll, BatchRows: batch})
	for _, op := range ops {
		if op.Type == ir.OpInput {
			continue
		}
		sameRelation(t, "EvalOp "+op.Out, want[op.Out], evalEnv[op.Out])
		sameRelation(t, "RunDAG "+op.Out, want[op.Out], dagEnv[op.Out])
		sameRelation(t, "keep-all "+op.Out, want[op.Out], allEnv[op.Out])
	}

	keep := map[string]bool{}
	for _, k := range c.keep {
		keep[k] = true
	}
	fusedEnv, fusedTrace := runStream(t, ops, inputs, RunOptions{
		Keep:      func(op *ir.Op) bool { return keep[op.Out] },
		BatchRows: batch,
	})
	for _, k := range c.keep {
		sameRelation(t, "fused "+k, want[k], fusedEnv[k])
	}
	sameTrace(t, allTrace, fusedTrace)
	sameTrace(t, dagTrace, fusedTrace)
}

// TestStreamingMatchesMaterialized drives every chain shape at batch sizes
// 1, 2, 3 and the default.
func TestStreamingMatchesMaterialized(t *testing.T) {
	for _, c := range streamCases() {
		for _, batch := range []int{1, 2, 3, 0} {
			t.Run(fmt.Sprintf("%s/batch%d", c.name, batch), func(t *testing.T) {
				checkChainCase(t, c, batch)
			})
		}
	}
}

// TestStreamingMatchesMaterializedParallel forces chunk-parallel pipelines
// (ParallelThreshold = 1) and re-checks every shape at batch size 1.
func TestStreamingMatchesMaterializedParallel(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1
	defer func() { ParallelThreshold = old }()
	for _, c := range streamCases() {
		t.Run(c.name, func(t *testing.T) {
			checkChainCase(t, c, 1)
		})
	}
}

// TestStreamingWhileBodyTinyBatches runs an iterative WHILE whose body is a
// chain at batch size 1 and compares against the run that keeps every
// operator, body operators included.
func TestStreamingWhileBodyTinyBatches(t *testing.T) {
	src := streamRelation(31)
	inputs := Env{"src": src}
	build := func() []*ir.Op {
		d := ir.NewDAG()
		in := d.AddInput("src", "in/src", src.Schema)
		body := ir.NewDAG()
		bin := body.AddInput("src", "in/src", src.Schema)
		a := body.Add(ir.OpArith, "bumped", ir.Params{Dst: "v", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(1)), AOp: ir.ArithAdd}, bin)
		body.Add(ir.OpProject, "next", ir.Params{Columns: []string{"k", "v", "s", "f"}}, a)
		d.Add(ir.OpWhile, "looped", ir.Params{
			Body:    body,
			MaxIter: 4,
			Carried: map[string]string{"src": "next"},
		}, in)
		ops, err := d.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	wantEnv, wantTrace := runStream(t, build(), inputs, RunOptions{Keep: keepAll})
	gotEnv, gotTrace := runStream(t, build(), inputs, RunOptions{BatchRows: 1})
	sameRelation(t, "looped", wantEnv["looped"], gotEnv["looped"])
	sameTrace(t, wantTrace, gotTrace)
	if wantTrace.Iterations[gotOpID(t, build(), "looped")] != 4 {
		t.Errorf("iterations = %v", wantTrace.Iterations)
	}
}

func gotOpID(t *testing.T, ops []*ir.Op, out string) int {
	t.Helper()
	for _, op := range ops {
		if op.Out == out {
			return op.ID
		}
	}
	t.Fatalf("op %q not found", out)
	return -1
}
