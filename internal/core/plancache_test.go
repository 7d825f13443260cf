package core

import (
	"fmt"
	"testing"

	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/obs"
	"musketeer/internal/relation"
)

// renamedPropertyPrice is maxPropertyPrice with every relation renamed and
// the inputs inserted in the opposite order — semantically identical,
// textually different.
func renamedPropertyPrice() *ir.DAG {
	d := ir.NewDAG()
	prices := d.AddInput("r1", "in/prices", relation.NewSchema("id:int", "price:float"))
	props := d.AddInput("r0", "in/properties", relation.NewSchema("id:int", "street:string", "town:string"))
	locs := d.Add(ir.OpProject, "r2", ir.Params{Columns: []string{"id", "street", "town"}}, props)
	idPrice := d.Add(ir.OpJoin, "r3", ir.Params{LeftCols: []string{"id"}, RightCols: []string{"id"}}, locs, prices)
	d.Add(ir.OpAgg, "r4", ir.Params{
		GroupBy: []string{"street", "town"},
		Aggs:    []ir.AggSpec{{Func: ir.AggMax, Col: "price", As: "max_price"}},
	}, idPrice)
	return d
}

func partitionFixture(t *testing.T, dag *ir.DAG) (*Partitioning, []*engines.Engine) {
	t.Helper()
	fs := seedPropertyDFS(t, 1000)
	est, err := NewEstimator(dag, fs, cluster.Local(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	engs := allEngines()
	p, err := AutoMap(dag, est, engs)
	if err != nil {
		t.Fatal(err)
	}
	return p, engs
}

func engineByName(engs []*engines.Engine) map[string]*engines.Engine {
	m := make(map[string]*engines.Engine, len(engs))
	for _, e := range engs {
		m[e.Name()] = e
	}
	return m
}

func TestPlanCacheReplayOnRenamedDAG(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	reg := obs.NewRegistry()
	pc := NewPlanCache(8, reg)
	pc.Store(PlanKey(a, engs), ir.Canonicalize(a), 0, p)

	b := renamedPropertyPrice()
	if PlanKey(a, engs) != PlanKey(b, engs) {
		t.Fatal("renamed DAG has a different plan key")
	}
	got, ok := pc.Lookup(PlanKey(b, engs), b, ir.Canonicalize(b), 0, engineByName(engs))
	if !ok {
		t.Fatal("expected a cache hit on the renamed DAG")
	}
	if len(got.Jobs) != len(p.Jobs) {
		t.Fatalf("replayed %d jobs, want %d", len(got.Jobs), len(p.Jobs))
	}
	if got.Cost != p.Cost || got.Exhaustive != p.Exhaustive {
		t.Errorf("replayed cost/exhaustive = %v/%t, want %v/%t", got.Cost, got.Exhaustive, p.Cost, p.Exhaustive)
	}
	// Every replayed fragment must reference ops of the NEW dag, not the
	// cached one, and pair the same engine with the same op-type multiset.
	inB := make(map[*ir.Op]bool, len(b.Ops))
	for _, op := range b.Ops {
		inB[op] = true
	}
	sig := func(pp *Partitioning) []string {
		var out []string
		for _, j := range pp.Jobs {
			types := ""
			for _, op := range j.Frag.Ops {
				types += op.Type.String() + ","
			}
			out = append(out, j.Engine.Name()+":"+types)
		}
		return out
	}
	for _, j := range got.Jobs {
		for _, op := range j.Frag.Ops {
			if !inB[op] {
				t.Fatalf("replayed fragment references op %s outside the new DAG", op)
			}
		}
	}
	if fmt.Sprint(sig(got)) != fmt.Sprint(sig(p)) {
		t.Errorf("replayed job signatures %v != original %v", sig(got), sig(p))
	}
	if h := reg.Counter("plan_cache_hit_total").Value(); h != 1 {
		t.Errorf("plan_cache_hit_total = %d, want 1", h)
	}
}

func TestPlanCacheCalibrationVersionInvalidates(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	reg := obs.NewRegistry()
	pc := NewPlanCache(8, reg)
	pc.Store(PlanKey(a, engs), ir.Canonicalize(a), 3, p)

	if _, ok := pc.Lookup(PlanKey(a, engs), a, ir.Canonicalize(a), 4, engineByName(engs)); ok {
		t.Fatal("stale calibration version must miss")
	}
	if m := reg.Counter("plan_cache_miss_total").Value(); m != 1 {
		t.Errorf("plan_cache_miss_total = %d, want 1", m)
	}
	if e := reg.Counter("plan_cache_evict_total").Value(); e != 1 {
		t.Errorf("stale entry should be evicted: plan_cache_evict_total = %d, want 1", e)
	}
	if pc.Len() != 0 {
		t.Errorf("stale entry still cached: len = %d", pc.Len())
	}
}

func TestPlanCacheBoundedEviction(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	reg := obs.NewRegistry()
	pc := NewPlanCache(2, reg)
	pc.Store("k1", ir.Canonicalize(a), 0, p)
	pc.Store("k2", ir.Canonicalize(a), 0, p)
	// Touch k1 so it is most recently used, then overflow.
	pc.Lookup("k1", a, ir.Canonicalize(a), 0, engineByName(engs))
	pc.Store("k3", ir.Canonicalize(a), 0, p)
	if pc.Len() != 2 {
		t.Fatalf("len = %d, want 2", pc.Len())
	}
	if _, ok := pc.Lookup("k2", a, ir.Canonicalize(a), 0, engineByName(engs)); ok {
		t.Error("k2 (least recently used) should have been evicted")
	}
	if _, ok := pc.Lookup("k1", a, ir.Canonicalize(a), 0, engineByName(engs)); !ok {
		t.Error("k1 (recently used) should survive")
	}
	if e := reg.Counter("plan_cache_evict_total").Value(); e != 1 {
		t.Errorf("plan_cache_evict_total = %d, want 1", e)
	}
}

func TestPlanCacheMissingEngineMisses(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	pc := NewPlanCache(8, nil)
	pc.Store(PlanKey(a, engs), ir.Canonicalize(a), 0, p)
	if _, ok := pc.Lookup(PlanKey(a, engs), a, ir.Canonicalize(a), 0, map[string]*engines.Engine{}); ok {
		t.Fatal("replay with no engines available must miss")
	}
}

func TestPlanCacheNilSafe(t *testing.T) {
	var pc *PlanCache
	a := maxPropertyPrice()
	pc.Store("k", ir.Canonicalize(a), 0, &Partitioning{})
	if _, ok := pc.Lookup("k", a, ir.Canonicalize(a), 0, nil); ok {
		t.Fatal("nil cache must never hit")
	}
	if pc.Len() != 0 {
		t.Fatal("nil cache has non-zero length")
	}
	if NewPlanCache(0, nil) != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
}

func TestPlanCacheSizeMismatchMisses(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	pc := NewPlanCache(8, nil)
	pc.Store("k", ir.Canonicalize(a), 0, p)
	small := ir.NewDAG()
	small.AddInput("x", "in/prices", relation.NewSchema("id:int", "price:float"))
	if _, ok := pc.Lookup("k", small, ir.Canonicalize(small), 0, engineByName(engs)); ok {
		t.Fatal("replay onto a different-size DAG must miss")
	}
}

func TestPlanCacheTouchRevalidates(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	pc := NewPlanCache(8, nil)
	key := PlanKey(a, engs)
	pc.Store(key, ir.Canonicalize(a), 3, p)

	// A run's own feedback moved calibration 3 -> 7; Touch re-tags the
	// entry so the next lookup at 7 hits instead of evicting.
	pc.Touch(key, 7)
	b := renamedPropertyPrice()
	if _, ok := pc.Lookup(key, b, ir.Canonicalize(b), 7, engineByName(engs)); !ok {
		t.Fatal("lookup after Touch missed")
	}
	// Foreign feedback after the touch still invalidates.
	if _, ok := pc.Lookup(key, b, ir.Canonicalize(b), 8, engineByName(engs)); ok {
		t.Fatal("lookup at a later version hit a stale entry")
	}
	if pc.Len() != 0 {
		t.Fatalf("stale entry not evicted: len=%d", pc.Len())
	}
	// Touching a missing key is a no-op, as is touching through nil.
	pc.Touch(key, 9)
	var nilPC *PlanCache
	nilPC.Touch(key, 9)
}
