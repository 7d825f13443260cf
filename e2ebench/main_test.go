package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"musketeer"
	"musketeer/internal/relation"
)

// smokeScale shrinks every workload so a whole run takes about a second.
var smokeScale = map[string]float64{"q17-batch": 0.02, "pagerank-loop": 0.25, "serve-churn": 0.2}

// exercised lists, per workload, the per-layer metrics its traced run must
// report as non-zero.
var exercised = map[string][]string{
	"q17-batch": {
		"frontends.compile_ms", "analysis.check_ms", "core.optimize_ms", "ir.plan_key_ms",
		"core.partition_ms", "core.partition_candidates", "core.run_ms", "sched.jobs_per_wf",
		"engines.pull_ms", "engines.process_ms", "exec.run_dag_ms", "relation.tsv_decode_mb_s",
		"relation.tsv_encode_mb_s", "dfs.pull_bytes_per_wf", "gc.alloc_mb_per_wf",
	},
	"pagerank-loop": {
		"frontends.compile_ms", "analysis.check_ms", "core.optimize_ms", "ir.plan_key_ms",
		"core.partition_ms", "core.partition_candidates", "core.run_ms", "core.while_iteration_ms",
		"sched.jobs_per_wf", "engines.pull_ms", "engines.process_ms", "engines.push_ms",
		"exec.run_dag_ms", "relation.tsv_decode_mb_s", "relation.tsv_encode_mb_s",
		"dfs.pull_bytes_per_wf", "dfs.push_bytes_per_wf", "gc.alloc_mb_per_wf",
	},
	"serve-churn": {
		"frontends.compile_ms", "analysis.check_ms", "core.optimize_ms", "ir.plan_key_ms",
		"core.partition_ms", "core.plancache_hit_ratio", "sched.jobs_per_wf", "engines.process_ms",
		"exec.run_dag_ms", "relation.tsv_decode_mb_s", "relation.tsv_encode_mb_s",
		"dfs.files_end", "serve.http_ms", "serve.exec_ms", "serve.fetch_ms", "gc.alloc_mb_per_wf",
	},
}

// TestSmoke runs every workload briefly, untraced and traced, on two
// seeds: every output must match its oracle and every metric must be
// emitted, with the ones the workload exercises non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				o := options{seed: seed, seconds: 0.5, trace: trace, scale: smokeScale[name], setups: 2, spansDir: t.TempDir()}
				rep, err := runWorkload(name, o)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("%s seed %d trace %v: attempted %d failed %d: %v", name, seed, trace, rep.attempted, rep.failed, rep.errs)
				}
				line, ok := resultLine([]*report{rep}, trace)
				if !ok {
					t.Fatalf("%s: result not correct: %s", name, line)
				}
				var res jsonResult
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatal(err)
				}
				defs, nonZero := endToEnd, []string{"setup_s", "wf_per_s", "latency_p50_ms", "latency_p90_ms", "heap_after_gc_mb"}
				if trace {
					defs, nonZero = perLayer, exercised[name]
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%s trace %v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("%s trace %v: metric %s missing or wrong unit: %+v", name, trace, d.name, m)
					}
				}
				for _, n := range nonZero {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s trace %v: %s = %g, want > 0", name, trace, n, res.Metrics[n].Value)
					}
				}
				if trace {
					spans, _ := filepath.Glob(filepath.Join(o.spansDir, "*.jsonl"))
					if len(spans) != 1 {
						t.Errorf("%s: traced run wrote %d span files, want 1", name, len(spans))
					}
				}
			}
		}
	}
}

// TestOracleFlagsCorruptQ17 runs Q17 through the program, then corrupts
// its real output: the oracle must accept the output and flag each
// corruption.
func TestOracleFlagsCorruptQ17(t *testing.T) {
	w := q17Batch(5, 0.02)
	m := musketeer.New()
	for path, rel := range w.inputs {
		if err := m.WriteInput(path, rel); err != nil {
			t.Fatal(err)
		}
	}
	if o := w.execute(m); o.err != nil {
		t.Fatalf("clean run: %v", o.err)
	}
	out, err := m.ReadOutput(w.output)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.verify(out); err != nil {
		t.Fatalf("oracle rejects the real output: %v", err)
	}
	nudged := out.Clone()
	nudged.Rows[0][0] = relation.Float(nudged.Rows[0][0].AsFloat() * (1 + 1e-6))
	extra := out.Clone()
	extra.MustAppend(out.Rows[0].Clone())
	for name, bad := range map[string]*musketeer.Relation{"nudged": nudged, "extra row": extra} {
		if w.verify(bad) == nil {
			t.Errorf("%s output passed the oracle", name)
		}
	}
}

func TestOracleFlagsCorruptPageRank(t *testing.T) {
	g := genGraph(3, 40, 600)
	want := pageRank(g, pageRankIterations)
	rel := musketeer.NewRelation("pagerank", gasVertexSchema)
	for v, r := range want {
		rel.MustAppend(relation.Row{relation.Int(v), relation.Float(r)})
	}
	if err := checkKeyedFloats(rel, "vertex", "vertex_value", want); err != nil {
		t.Fatalf("oracle rejects its own answer: %v", err)
	}
	nudged := rel.Clone()
	nudged.Rows[3][1] = relation.Float(nudged.Rows[3][1].F * (1 + 1e-7))
	dropped := rel.Clone()
	dropped.Rows = dropped.Rows[1:]
	for name, bad := range map[string]*musketeer.Relation{"nudged": nudged, "dropped row": dropped} {
		if checkKeyedFloats(bad, "vertex", "vertex_value", want) == nil {
			t.Errorf("%s ranks passed the oracle", name)
		}
	}
}

// TestOracleFlagsCorruptServe builds each shape's expected output as a
// relation, then corrupts a value, a key, and the row count.
func TestOracleFlagsCorruptServe(t *testing.T) {
	d := genTenant(9, 120)
	for _, sh := range serveShapes {
		lit := sh.lit(7)
		rows := sh.expect(d, lit)
		if len(rows) == 0 {
			t.Fatalf("%s: oracle expects no rows; the smoke data should produce some", sh.name)
		}
		build := func(mut func(r []relation.Value)) *musketeer.Relation {
			var specs []string
			for i, c := range sh.cols {
				kind := "float"
				if i < sh.keyCols {
					kind = "string"
				}
				specs = append(specs, c+":"+kind)
			}
			rel := musketeer.NewRelation(sh.output, musketeer.NewSchema(specs...))
			for i, er := range rows {
				var row relation.Row
				for _, k := range er.keys {
					row = append(row, relation.Str(k))
				}
				for _, v := range er.vals {
					row = append(row, relation.Float(v))
				}
				if i == 0 && mut != nil {
					mut(row)
				}
				rel.MustAppend(row)
			}
			return rel
		}
		if err := sh.check(build(nil), rows); err != nil {
			t.Fatalf("%s: oracle rejects its own answer: %v", sh.name, err)
		}
		badValue := build(func(r []relation.Value) { r[sh.keyCols] = relation.Float(r[sh.keyCols].F + 0.5) })
		badKey := build(func(r []relation.Value) { r[0] = relation.Str(r[0].S + "x") })
		short := build(nil)
		short.Rows = short.Rows[1:]
		for name, bad := range map[string]*musketeer.Relation{"value": badValue, "key": badKey, "row count": short} {
			if sh.check(bad, rows) == nil {
				t.Errorf("%s: corrupt %s passed the oracle", sh.name, name)
			}
		}
		if other := sh.lit(8); sh.check(build(nil), sh.expect(d, other)) == nil && sh.name != "eu-spend" {
			t.Errorf("%s: output of literal %g passed as literal %g", sh.name, lit, other)
		}
	}
}

// TestMismatchFailsTheRun checks that one failed operation makes the
// result incorrect, which main turns into a non-zero exit.
func TestMismatchFailsTheRun(t *testing.T) {
	rep := newReport("q17-batch")
	rep.attempted = 10
	rep.fail(errors.New("oracle mismatch"))
	if _, ok := resultLine([]*report{rep}, false); ok {
		t.Fatal("a run with a failed operation reported correct")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, want %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v, want %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, want %+v", i, m, d)
		}
	}
}
