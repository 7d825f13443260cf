package main

import (
	"fmt"
	"math"

	"musketeer"
)

// The oracles recompute every expected output with plain loops over the
// generated records. They share no code with the program: every engine
// runs the same exec kernels, so agreement between engines would prove
// nothing.

// relTol is the relative tolerance for float results; summation order is
// the only legitimate source of difference.
const relTol = 1e-9

func near(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

// column returns the index of the named column or an error.
func column(rel *musketeer.Relation, name string) (int, error) {
	i := rel.Schema.Index(name)
	if i < 0 {
		return 0, fmt.Errorf("output %s has no column %q (schema %s)", rel.Name, name, rel.Schema)
	}
	return i, nil
}

// q17Revenue is TPC-H Q17's answer: the summed price of lineitems of
// Brand#23 / MED BOX parts whose quantity is below 0.2 × that part's
// average quantity.
func q17Revenue(d *q17Data) float64 {
	target := map[int64]bool{}
	for _, p := range d.parts {
		if p.brand == "Brand#23" && p.container == "MED BOX" {
			target[p.partkey] = true
		}
	}
	sum := map[int64]float64{}
	cnt := map[int64]float64{}
	for _, it := range d.items {
		sum[it.partkey] += it.quantity
		cnt[it.partkey]++
	}
	var rev float64
	for _, it := range d.items {
		if target[it.partkey] && it.quantity < 0.2*(sum[it.partkey]/cnt[it.partkey]) {
			rev += it.price
		}
	}
	return rev
}

// checkScalar verifies a one-row, one-column float output.
func checkScalar(out *musketeer.Relation, col string, want float64) error {
	i, err := column(out, col)
	if err != nil {
		return err
	}
	if out.NumRows() == 0 && want == 0 {
		return nil
	}
	if out.NumRows() != 1 {
		return fmt.Errorf("%s: %d rows, want 1", out.Name, out.NumRows())
	}
	if got := out.Rows[0][i].AsFloat(); !near(got, want) {
		return fmt.Errorf("%s.%s = %.12g, want %.12g", out.Name, col, got, want)
	}
	return nil
}

// pageRank runs the GAS program's semantics: each iteration sends
// rank/out-degree along every edge whose source still holds a rank, sums
// per destination, and applies 0.15 + 0.85·sum. Vertices that receive no
// message leave the vertex set, exactly as the GAS translation's
// scatter-join / gather-group does.
func pageRank(g *graphData, iterations int) map[int64]float64 {
	ranks := make(map[int64]float64, g.vertices)
	for v := 0; v < g.vertices; v++ {
		ranks[int64(v)] = 1
	}
	for it := 0; it < iterations; it++ {
		next := map[int64]float64{}
		for _, e := range g.edges {
			if r, ok := ranks[e.src]; ok {
				next[e.dst] += r / float64(g.degree[e.src])
			}
		}
		for v, s := range next {
			next[v] = s*0.85 + 0.15
		}
		ranks = next
	}
	return ranks
}

// checkKeyedFloats verifies an output holding exactly one row per key of
// want, with the float column within tolerance.
func checkKeyedFloats(out *musketeer.Relation, keyCol, valCol string, want map[int64]float64) error {
	ki, err := column(out, keyCol)
	if err != nil {
		return err
	}
	vi, err := column(out, valCol)
	if err != nil {
		return err
	}
	if out.NumRows() != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", out.Name, out.NumRows(), len(want))
	}
	seen := make(map[int64]bool, len(want))
	for _, row := range out.Rows {
		k := row[ki].AsInt()
		w, ok := want[k]
		if !ok || seen[k] {
			return fmt.Errorf("%s: unexpected or repeated key %d", out.Name, k)
		}
		seen[k] = true
		if got := row[vi].AsFloat(); !near(got, w) {
			return fmt.Errorf("%s: key %d: %s = %.12g, want %.12g", out.Name, k, valCol, got, w)
		}
	}
	return nil
}
