package exec

import (
	"fmt"
	"slices"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// naiveEval is the test-only reference for the five pipeline operators —
// SELECT, PROJECT, ARITH, JOIN and AGG — written straight from their
// definitions with nested loops over materialized rows: no hashing, arenas,
// batches, or parallelism. Predicates and operands still go through
// EvalPred/operandValue, which define expression semantics rather than how
// an operator executes.
func naiveEval(op *ir.Op, inputs []*relation.Relation) (*relation.Relation, error) {
	schemas := map[*ir.Op]relation.Schema{}
	for i, in := range op.Inputs {
		schemas[in] = inputs[i].Schema
	}
	sch, err := ir.OutputSchema(op, schemas)
	if err != nil {
		return nil, err
	}
	out := relation.New(op.Out, sch)
	in := inputs[0]
	switch op.Type {
	case ir.OpSelect:
		for _, row := range in.Rows {
			ok, err := EvalPred(op.Params.Pred, in.Schema, row)
			if err != nil {
				return nil, err
			}
			if ok {
				out.Rows = append(out.Rows, row)
			}
		}
	case ir.OpProject:
		for _, row := range in.Rows {
			var nr relation.Row
			for _, col := range op.Params.Columns {
				nr = append(nr, row[in.Schema.Index(col)])
			}
			out.Rows = append(out.Rows, nr)
		}
	case ir.OpArith:
		for _, row := range in.Rows {
			l, err := operandValue(op.Params.ALeft, in.Schema, row)
			if err != nil {
				return nil, err
			}
			r, err := operandValue(op.Params.ARght, in.Schema, row)
			if err != nil {
				return nil, err
			}
			nr := append(relation.Row{}, row...)
			if j := in.Schema.Index(op.Params.Dst); j >= 0 {
				nr[j] = op.Params.AOp.Apply(l, r)
			} else {
				nr = append(nr, op.Params.AOp.Apply(l, r))
			}
			out.Rows = append(out.Rows, nr)
		}
	case ir.OpJoin:
		right := inputs[1]
		for _, lr := range in.Rows {
			for _, rr := range right.Rows {
				match := true
				for k, lc := range op.Params.LeftCols {
					rc := op.Params.RightCols[k]
					if !lr[in.Schema.Index(lc)].Equal(rr[right.Schema.Index(rc)]) {
						match = false
					}
				}
				if !match {
					continue
				}
				nr := append(relation.Row{}, lr...)
				for j, col := range right.Schema.Cols {
					if !slices.Contains(op.Params.RightCols, col.Name) {
						nr = append(nr, rr[j])
					}
				}
				out.Rows = append(out.Rows, nr)
			}
		}
	case ir.OpAgg:
		naiveAgg(op, in, out)
	default:
		return nil, fmt.Errorf("naive reference: %s is not a pipeline operator", op)
	}
	ratio := 1.0
	for _, in := range inputs {
		if r := in.ScaleRatio(); r > ratio {
			ratio = r
		}
	}
	if ratio > 1 {
		out.LogicalBytes = int64(float64(out.PhysicalBytes()) * ratio)
	}
	return out, nil
}

// naiveAgg groups rows by linear search in first-appearance order and
// folds each aggregate over its group's rows.
func naiveAgg(op *ir.Op, in, out *relation.Relation) {
	type group struct {
		key  relation.Row
		rows []relation.Row
	}
	var groups []*group
	for _, row := range in.Rows {
		var key relation.Row
		for _, col := range op.Params.GroupBy {
			key = append(key, row[in.Schema.Index(col)])
		}
		var g *group
		for _, cand := range groups {
			if slices.EqualFunc(cand.key, key, relation.Value.Equal) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: key}
			groups = append(groups, g)
		}
		g.rows = append(g.rows, row)
	}
	if len(in.Rows) == 0 && len(op.Params.GroupBy) == 0 {
		// SQL semantics: a global aggregate over no rows is one row of
		// zeros.
		var row relation.Row
		for _, a := range op.Params.Aggs {
			if a.Func == ir.AggCount {
				row = append(row, relation.Int(0))
			} else {
				row = append(row, relation.Float(0))
			}
		}
		out.Rows = append(out.Rows, row)
	}
	sum := func(rows []relation.Row, j int) relation.Value {
		s := relation.Float(0)
		for _, row := range rows {
			s = s.Add(row[j])
		}
		return s
	}
	for _, g := range groups {
		row := append(relation.Row{}, g.key...)
		for _, a := range op.Params.Aggs {
			j := in.Schema.Index(a.Col)
			switch a.Func {
			case ir.AggCount:
				row = append(row, relation.Int(int64(len(g.rows))))
			case ir.AggSum:
				s := sum(g.rows, j)
				if in.Schema.Cols[j].Kind == relation.KindInt {
					s = relation.Int(int64(s.AsFloat()))
				}
				row = append(row, s)
			case ir.AggMin, ir.AggMax:
				best := g.rows[0][j]
				for _, r := range g.rows[1:] {
					c := r[j].Compare(best)
					if (a.Func == ir.AggMin && c < 0) || (a.Func == ir.AggMax && c > 0) {
						best = r[j]
					}
				}
				row = append(row, best)
			case ir.AggAvg:
				row = append(row, relation.Float(sum(g.rows, j).AsFloat()/float64(len(g.rows))))
			}
		}
		out.Rows = append(out.Rows, row)
	}
}

// TestNaiveReference pins the reference itself to hand-computed results,
// so the equivalence suite compares the pipeline against an oracle that is
// right on its own terms.
func TestNaiveReference(t *testing.T) {
	d := ir.NewDAG()
	sch := relation.NewSchema("k:int", "v:int", "s:string")
	src := d.AddInput("src", "in/src", sch)
	dim := d.AddInput("dim", "in/dim", relation.NewSchema("k:int", "label:string"))
	in := mkRel("src", sch,
		relation.Row{relation.Int(1), relation.Int(10), relation.Str("a")},
		relation.Row{relation.Int(2), relation.Int(20), relation.Str("b")},
		relation.Row{relation.Int(1), relation.Int(30), relation.Str("c")},
	)
	dimRel := mkRel("dim", relation.NewSchema("k:int", "label:string"),
		relation.Row{relation.Int(1), relation.Str("one")},
		relation.Row{relation.Int(1), relation.Str("uno")},
	)
	cases := []struct {
		op   *ir.Op
		in   []*relation.Relation
		want string
	}{
		{d.Add(ir.OpSelect, "sel", ir.Params{Pred: pred("v", ir.CmpGt, 15)}, src), []*relation.Relation{in},
			"2\t20\tb\n1\t30\tc\n"},
		{d.Add(ir.OpProject, "proj", ir.Params{Columns: []string{"s", "k"}}, src), []*relation.Relation{in},
			"a\t1\nb\t2\nc\t1\n"},
		{d.Add(ir.OpArith, "ar", ir.Params{Dst: "w", ALeft: ir.ColRef("v"), ARght: ir.ColRef("k"), AOp: ir.ArithMul}, src), []*relation.Relation{in},
			"1\t10\ta\t10\n2\t20\tb\t40\n1\t30\tc\t30\n"},
		{d.Add(ir.OpJoin, "j", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, src, dim), []*relation.Relation{in, dimRel},
			"1\t10\ta\tone\n1\t10\ta\tuno\n1\t30\tc\tone\n1\t30\tc\tuno\n"},
		{d.Add(ir.OpAgg, "g", ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{
			{Func: ir.AggSum, Col: "v", As: "sum"}, {Func: ir.AggCount, As: "n"},
			{Func: ir.AggMin, Col: "s", As: "lo"}, {Func: ir.AggAvg, Col: "v", As: "avg"},
		}}, src), []*relation.Relation{in},
			"1\t40\t2\ta\t20\n2\t20\t1\tb\t20\n"},
		{d.Add(ir.OpAgg, "none", ir.Params{Aggs: []ir.AggSpec{{Func: ir.AggCount, As: "n"}, {Func: ir.AggMax, Col: "v", As: "hi"}}}, src),
			[]*relation.Relation{relation.New("src", sch)}, "0\t0\n"},
	}
	for _, c := range cases {
		got, err := naiveEval(c.op, c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.op.Out, err)
		}
		var text []byte
		for _, row := range got.Rows {
			for i, v := range row {
				if i > 0 {
					text = append(text, '\t')
				}
				text = v.AppendText(text)
			}
			text = append(text, '\n')
		}
		if string(text) != c.want {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", c.op.Out, text, c.want)
		}
	}
}
