package ir

import (
	"fmt"
	"testing"

	"musketeer/internal/relation"
)

// canonWorkflow builds the Listing-1 shape (two inputs, project, join, agg)
// with caller-chosen relation names and insertion order, so tests can build
// isomorphic-but-textually-different DAGs. Literals parameterize via the
// select threshold.
func canonWorkflow(names map[string]string, reversedInputs bool, threshold int64) *DAG {
	n := func(k string) string {
		if v, ok := names[k]; ok {
			return v
		}
		return k
	}
	d := NewDAG()
	var props, prices *Op
	if reversedInputs {
		prices = d.AddInput(n("prices"), "in/prices", pricesSchema())
		props = d.AddInput(n("properties"), "in/properties", propsSchema())
	} else {
		props = d.AddInput(n("properties"), "in/properties", propsSchema())
		prices = d.AddInput(n("prices"), "in/prices", pricesSchema())
	}
	sel := d.Add(OpSelect, n("cheap"), Params{
		Pred: Cmp(ColRef("id"), CmpLt, LitOp(relation.Int(threshold))),
	}, prices)
	locs := d.Add(OpProject, n("locs"), Params{Columns: []string{"id", "street", "town"}}, props)
	j := d.Add(OpJoin, n("id_price"), Params{LeftCols: []string{"id"}, RightCols: []string{"id"}}, locs, sel)
	d.Add(OpAgg, n("street_price"), Params{
		GroupBy: []string{"street", "town"},
		Aggs:    []AggSpec{{Func: AggMax, Col: "price", As: "max_price"}},
	}, j)
	return d
}

func TestCanonicalHashRenameInvariant(t *testing.T) {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(map[string]string{
		"properties": "t0", "prices": "t1", "cheap": "t2",
		"locs": "t3", "id_price": "t4", "street_price": "t5",
	}, false, 100)
	ca, cb := Canonicalize(a), Canonicalize(b)
	if ca.Hash != cb.Hash {
		t.Errorf("renaming every relation changed the canonical hash: %s vs %s", ca.Hash, cb.Hash)
	}
	// Positions are the history key of an operator: a renamed operator
	// keeps its position.
	if pa, pb := ca.Pos[a.ByOut("street_price")], cb.Pos[b.ByOut("t5")]; pa != pb {
		t.Errorf("renamed agg at position %d, original at %d", pb, pa)
	}
}

func TestCanonicalHashOrderInvariant(t *testing.T) {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(nil, true, 100)
	if Canonicalize(a).Hash != Canonicalize(b).Hash {
		t.Errorf("reordering op insertion changed the canonical hash: %s vs %s",
			Canonicalize(a).Hash, Canonicalize(b).Hash)
	}
}

func TestCanonicalHashLiteralSensitive(t *testing.T) {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(nil, false, 200)
	if Canonicalize(a).Hash == Canonicalize(b).Hash {
		t.Error("changing a predicate literal did not change the canonical hash")
	}
}

func TestCanonicalHashStructureSensitive(t *testing.T) {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(nil, false, 100)
	// Same ops, different wiring: aggregate the projection instead of the join.
	agg := b.ByOut("street_price")
	agg.Inputs = []*Op{b.ByOut("locs")}
	if Canonicalize(a).Hash == Canonicalize(b).Hash {
		t.Error("rewiring an edge did not change the canonical hash")
	}
}

func TestCanonicalOrderBijection(t *testing.T) {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(map[string]string{
		"properties": "x0", "prices": "x1", "cheap": "x2",
		"locs": "x3", "id_price": "x4", "street_price": "x5",
	}, true, 100)
	oa, ob := Canonicalize(a).Order, Canonicalize(b).Order
	if len(oa) != len(ob) {
		t.Fatalf("order lengths differ: %d vs %d", len(oa), len(ob))
	}
	for i := range oa {
		if oa[i].Type != ob[i].Type {
			t.Errorf("position %d: %s vs %s — canonical orders misaligned",
				i, oa[i].Type, ob[i].Type)
		}
	}
	// The agg in a must align with the renamed agg in b.
	for i := range oa {
		if oa[i].Out == "street_price" && ob[i].Out != "x5" {
			t.Errorf("agg aligned with %q, want x5", ob[i].Out)
		}
	}
}

// TestCanonicalOrderTwins pins the refinement step: two SELECTs with equal
// upstream cones but different consumers must separate by downstream
// context, so recipes never swap them.
func TestCanonicalOrderTwins(t *testing.T) {
	build := func(swap bool) *DAG {
		d := NewDAG()
		in := d.AddInput("src", "in/src", pricesSchema())
		p := Cmp(ColRef("id"), CmpGt, LitOp(relation.Int(1)))
		s1 := d.Add(OpSelect, "s1", Params{Pred: p}, in)
		s2 := d.Add(OpSelect, "s2", Params{Pred: p}, in)
		if swap {
			s1, s2 = s2, s1
		}
		// s1 feeds a DISTINCT, s2 feeds a SORT: downstream context differs.
		d.Add(OpDistinct, "d", Params{}, s1)
		d.Add(OpSort, "o", Params{SortBy: []string{"id"}}, s2)
		return d
	}
	a, b := build(false), build(true)
	if Canonicalize(a).Hash != Canonicalize(b).Hash {
		t.Fatal("twin selects: hashes differ for isomorphic DAGs")
	}
	oa, ob := Canonicalize(a).Order, Canonicalize(b).Order
	cona, conb := a.Consumers(), b.Consumers()
	for i := range oa {
		if oa[i].Type != OpSelect {
			continue
		}
		if len(cona[oa[i]]) != 1 || len(conb[ob[i]]) != 1 {
			t.Fatalf("position %d: select consumer count unexpected", i)
		}
		if cona[oa[i]][0].Type != conb[ob[i]][0].Type {
			t.Errorf("position %d: twin selects aligned to different consumers (%s vs %s)",
				i, cona[oa[i]][0].Type, conb[ob[i]][0].Type)
		}
	}
}

func TestCanonicalHashWhileBodyNamesMatter(t *testing.T) {
	build := func(bodyOut string) *DAG {
		body := NewDAG()
		bin := body.AddInput("cur", "", pricesSchema())
		body.Add(OpDistinct, bodyOut, Params{}, bin)
		d := NewDAG()
		src := d.AddInput("seed", "in/seed", pricesSchema())
		d.Add(OpWhile, "result", Params{
			Body: body, MaxIter: 3,
			Carried: map[string]string{"cur": bodyOut},
		}, src)
		return d
	}
	a, b := build("next"), build("step")
	if Canonicalize(a).Hash == Canonicalize(b).Hash {
		t.Error("WHILE body relation names are semantic (Carried refers to them) and must affect the hash")
	}
}

// TestCanonicalHashCarriedTargets pins that a WHILE's loop-carried wiring
// is part of its identity: swapping which body output feeds which body
// input is a different loop.
func TestCanonicalHashCarriedTargets(t *testing.T) {
	build := func(carried map[string]string) *DAG {
		body := NewDAG()
		a := body.AddInput("a", "", pricesSchema())
		b := body.AddInput("b", "", pricesSchema())
		body.Add(OpDistinct, "x", Params{}, a)
		body.Add(OpSort, "y", Params{SortBy: []string{"id"}}, b)
		d := NewDAG()
		sa := d.AddInput("a", "in/a", pricesSchema())
		sb := d.AddInput("b", "in/b", pricesSchema())
		d.Add(OpWhile, "result", Params{Body: body, MaxIter: 3, Carried: carried}, sa, sb)
		return d
	}
	straight := build(map[string]string{"a": "x", "b": "y"})
	swapped := build(map[string]string{"a": "y", "b": "x"})
	if Canonicalize(straight).Hash == Canonicalize(swapped).Hash {
		t.Error("swapping the targets of Carried did not change the canonical hash")
	}
}

// TestInferSchemasLeavesWhileDAGUnchanged pins that schema inference only
// reads the DAG: a WHILE body's untyped input bridge gets its schema in
// the returned map, not on the operator, so the DAG's identity — and the
// body's, which keys the body's history — is the same after inference.
func TestInferSchemasLeavesWhileDAGUnchanged(t *testing.T) {
	d := pageRankWhileDAG()
	body := d.ByOut("final_ranks").Params.Body
	before, bodyBefore := Canonicalize(d), Canonicalize(body)
	inSchemas := func() map[string]string {
		m := map[string]string{}
		for _, op := range body.Ops {
			if op.Type == OpInput {
				m[op.Out] = op.Params.Schema.String()
			}
		}
		return m
	}
	declared := inSchemas()
	schemas, err := d.InferSchemas()
	if err != nil {
		t.Fatal(err)
	}
	if got := schemas[body.ByOut("ranks")]; got.Arity() != 2 {
		t.Errorf("bridged body input inferred as %s, want the outer ranks schema", got)
	}
	if after := Canonicalize(d); after.Hash != before.Hash {
		t.Errorf("InferSchemas changed the DAG's canonical hash: %s -> %s", before.Hash, after.Hash)
	}
	if after := Canonicalize(body); after.Hash != bodyBefore.Hash {
		t.Errorf("InferSchemas changed the body's canonical hash: %s -> %s", bodyBefore.Hash, after.Hash)
	}
	for name, s := range inSchemas() {
		if s != declared[name] {
			t.Errorf("body input %q schema %q -> %q", name, declared[name], s)
		}
	}
}

func TestCanonicalHashStableAcrossRuns(t *testing.T) {
	// Map iteration order must not leak into the digest.
	want := Canonicalize(canonWorkflow(nil, false, 100)).Hash
	for i := 0; i < 20; i++ {
		if got := Canonicalize(canonWorkflow(nil, false, 100)).Hash; got != want {
			t.Fatalf("run %d: hash %s != %s", i, got, want)
		}
	}
}

func BenchmarkCanonicalize(b *testing.B) {
	d := canonWorkflow(nil, false, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Canonicalize(d).Hash == "" {
			b.Fatal("empty hash")
		}
	}
}

func ExampleCanonicalize() {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(map[string]string{"street_price": "renamed"}, true, 100)
	fmt.Println(Canonicalize(a).Hash == Canonicalize(b).Hash)
	// Output: true
}
