package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"musketeer"
	"musketeer/internal/core"
	"musketeer/internal/engines"
	"musketeer/internal/exec"
	"musketeer/internal/relation"
	"musketeer/internal/sched"
)

// serveChurn drives `musketeer serve` over HTTP on a loopback listener in
// the same process: two client connections in a closed loop, each owning
// two of the four tenants (so no two sessions in flight ever write the same
// tenant output). A session is, with probability restageProb, a re-stage
// of one identical input (POST), then a job POST, polls until the job is
// done, and a GET of its output, which is checked against the oracle.
type serveChurn struct {
	tenants []string
	data    []*tenantData
	// staged holds each tenant's inputs as the TSV bodies POSTed to the
	// inputs API, by tenant-relative path.
	staged []map[string][]byte
	seed   int64

	fresh atomic.Int64 // next fresh-variant number
	mu    sync.Mutex
	want  map[expKey][]expRow
}

type expKey struct {
	tenant int
	shape  string
	lit    float64
}

const (
	serveClients = 2
	// warmVariants is how many literals per shape form the warm working
	// set; fresh variants are numbered above them and never repeat.
	warmVariants = 2
	freshProb    = 0.3
	restageProb  = 0.1
	pollInterval = 500 * time.Microsecond
)

func newServeChurn(seed int64, scale float64) *serveChurn {
	s := &serveChurn{seed: seed, want: map[expKey][]expRow{}}
	s.fresh.Store(warmVariants)
	for i := 0; i < 4; i++ {
		d := genTenant(seed*7919+int64(i), max(int(300*scale), 24))
		s.tenants = append(s.tenants, fmt.Sprintf("t%d", i))
		s.data = append(s.data, d)
		bodies := map[string][]byte{}
		for path, rel := range d.tables() {
			bodies[path] = rel.EncodeBytes()
		}
		s.staged = append(s.staged, bodies)
	}
	return s
}

// expected returns (and memoizes) the oracle's rows for one variant.
func (s *serveChurn) expected(tenant int, sh *serveShape, lit float64) []expRow {
	k := expKey{tenant, sh.name, lit}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rows, ok := s.want[k]; ok {
		return rows
	}
	rows := sh.expect(s.data[tenant], lit)
	s.want[k] = rows
	return rows
}

// server is one running serve deployment.
type server struct {
	m    *musketeer.Musketeer
	srv  *musketeer.Server
	ts   *httptest.Server
	base string
	hc   *http.Client
}

// start builds a deployment with the plan cache on, serves it on a
// loopback listener, and stages every tenant's inputs over HTTP.
func (s *serveChurn) start(traced bool) (*server, error) {
	opts := []musketeer.Option{musketeer.WithPlanCache(256)}
	if traced {
		opts = append(opts, musketeer.WithTracing())
	}
	m := musketeer.New(opts...)
	sv := &server{m: m, srv: m.NewServer(musketeer.ServeOptions{})}
	sv.ts = httptest.NewServer(sv.srv)
	sv.base = sv.ts.URL
	sv.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	for t := range s.tenants {
		for path := range s.staged[t] {
			if _, err := s.stage(sv, t, path); err != nil {
				sv.stop()
				return nil, err
			}
		}
	}
	return sv, nil
}

// stop closes the client's connections, then the listener (which waits
// for requests in flight), then the serve plane.
func (sv *server) stop() {
	sv.hc.CloseIdleConnections()
	sv.ts.Close()
	sv.srv.Close()
}

// stage POSTs one of a tenant's inputs and returns the call's wall time.
func (s *serveChurn) stage(sv *server, tenant int, path string) (time.Duration, error) {
	start := time.Now()
	url := fmt.Sprintf("%s/api/v1/tenants/%s/inputs/%s", sv.base, s.tenants[tenant], path)
	resp, err := sv.hc.Post(url, "text/tab-separated-values", bytes.NewReader(s.staged[tenant][path]))
	if err != nil {
		return 0, fmt.Errorf("staging %s/%s: %w", s.tenants[tenant], path, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return 0, fmt.Errorf("staging %s/%s: status %d", s.tenants[tenant], path, resp.StatusCode)
	}
	return time.Since(start), nil
}

// session is one client session as measured from the client.
type session struct {
	tenant  int
	shape   *serveShape
	lit     float64
	fresh   bool
	latency time.Duration
	stage   time.Duration // 0 when the session did not re-stage
	fetch   time.Duration
	status  musketeer.JobStatus
	err     error
}

// run executes one session: optional re-stage, then POST job → poll →
// GET output, then the oracle check (outside the latency).
func (s *serveChurn) run(sv *server, ses *session, restage string, tr *tracer, id int64) {
	root := tr.start(nil, id, "serve.session")
	defer root.end()
	if restage != "" {
		var err error
		sp := tr.start(root, id, "serve.stage")
		ses.stage, err = s.stage(sv, ses.tenant, restage)
		sp.end()
		if err != nil {
			ses.err = err
			return
		}
	}
	tenant := s.tenants[ses.tenant]
	body, err := json.Marshal(ses.shape.submitRequest(ses.lit))
	if err != nil {
		ses.err = err
		return
	}
	req := tr.start(root, id, "serve.request")
	start := time.Now()
	var st musketeer.JobStatus
	tr.timed(req, id, "serve.post_job", func() {
		err = sv.call(http.MethodPost, "/api/v1/tenants/"+tenant+"/jobs", body, http.StatusAccepted, &st)
	})
	if err != nil {
		req.end()
		ses.err = err
		return
	}
	tr.timed(req, id, "serve.poll", func() {
		for st.Status != "ok" && st.Status != "failed" {
			time.Sleep(pollInterval)
			if err = sv.call(http.MethodGet, "/api/v1/tenants/"+tenant+"/jobs/"+st.ID, nil, http.StatusOK, &st); err != nil {
				return
			}
		}
	})
	if err == nil && st.Status == "failed" {
		err = fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	if err != nil {
		req.end()
		ses.err = err
		return
	}
	var out *musketeer.Relation
	ses.fetch = tr.timed(req, id, "serve.get_output", func() {
		out, err = sv.output(tenant, ses.shape.output)
	})
	ses.latency = time.Since(start)
	req.end()
	ses.status = st
	if err != nil {
		ses.err = err
		return
	}
	if tr != nil {
		if _, rec, ok := sv.m.Runs().Get(st.Result.RunID); ok {
			tr.importFlight(req, rec)
		}
	}
	if err := ses.shape.check(out, s.expected(ses.tenant, ses.shape, ses.lit)); err != nil {
		ses.err = fmt.Errorf("oracle mismatch: %s/%s lit %g: %w", tenant, ses.shape.name, ses.lit, err)
	}
}

// call performs one JSON API request; any status but want is an error
// (429 and 5xx included).
func (sv *server) call(method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, sv.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := sv.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// output fetches and decodes a tenant's output relation.
func (sv *server) output(tenant, name string) (*musketeer.Relation, error) {
	resp, err := sv.hc.Get(sv.base + "/api/v1/tenants/" + tenant + "/outputs/" + name)
	if err != nil {
		return nil, fmt.Errorf("fetching %s/%s: %w", tenant, name, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("fetching %s/%s: %w", tenant, name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching %s/%s: status %d", tenant, name, resp.StatusCode)
	}
	return relation.DecodeBytes(name, data)
}

// warmSet lists every (tenant, shape, warm literal) once.
func (s *serveChurn) warmSet() []session {
	var out []session
	for t := range s.tenants {
		for _, sh := range serveShapes {
			for k := 0; k < warmVariants; k++ {
				out = append(out, session{tenant: t, shape: sh, lit: sh.lit(k)})
			}
		}
	}
	return out
}

// deploy starts a server and warms it: rounds over the whole warm set
// until the calibration version is unchanged across two rounds.
func (s *serveChurn) deploy(traced bool) (*server, warmup, error) {
	start := time.Now()
	sv, err := s.start(traced)
	if err != nil {
		return nil, warmup{}, err
	}
	wu, err := warm(sv.m, func() wfOutcome {
		var plans []string
		for _, ses := range s.warmSet() {
			s.run(sv, &ses, "", nil, 0)
			if ses.err != nil {
				return wfOutcome{err: ses.err}
			}
			plans = append(plans, fmt.Sprint(ses.status.Result.Engines))
		}
		return wfOutcome{engines: fmt.Sprint(plans)}
	})
	wu.setup = time.Since(start)
	if err != nil {
		sv.stop()
		return nil, wu, err
	}
	return sv, wu, nil
}

// pick draws the next session of one client: a tenant it owns, a shape,
// and either a warm literal or a never-seen one.
func (s *serveChurn) pick(r *rand.Rand, client int) (session, string) {
	ses := session{
		tenant: client*len(s.tenants)/serveClients + r.Intn(len(s.tenants)/serveClients),
		shape:  serveShapes[r.Intn(len(serveShapes))],
	}
	if r.Float64() < freshProb {
		ses.fresh = true
		ses.lit = ses.shape.lit(int(s.fresh.Add(1)))
	} else {
		ses.lit = ses.shape.lit(r.Intn(warmVariants))
	}
	restage := ""
	if r.Float64() < restageProb {
		restage = "in/" + ses.shape.tables[r.Intn(len(ses.shape.tables))]
	}
	return ses, restage
}

// servePhase is one measured closed-loop phase of both clients.
type servePhase struct {
	phaseResult
	sessions []session
}

// measure runs both clients for d. tr, when non-nil, records spans and
// runs the side probes after each session.
func (s *serveChurn) measure(sv *server, d time.Duration, rep *report, tr *tracer, pr *probeStats) servePhase {
	var ph servePhase
	var mu sync.Mutex
	var ids atomic.Int64
	before := readCounters(sv.m)
	start := time.Now()
	sched.ForEach(serveClients, serveClients, func(c int) {
		r := rand.New(rand.NewSource(s.seed*31 + int64(c) + 1))
		var probes probeStats // this client's; merged into pr at the end
		defer func() {
			if pr != nil {
				mu.Lock()
				pr.add(probes)
				mu.Unlock()
			}
		}()
		for time.Since(start) < d {
			ses, restage := s.pick(r, c)
			id := ids.Add(1)
			s.run(sv, &ses, restage, tr, id)
			var probeErr error
			if ses.err == nil && tr != nil {
				probeErr = s.probe(sv, &ses, tr, id, &probes)
			}
			mu.Lock()
			rep.attempted++
			switch {
			case ses.err != nil:
				rep.fail(ses.err)
			case probeErr != nil:
				rep.fail(probeErr)
			default:
				ph.completed++
				ph.latencies = append(ph.latencies, ms(ses.latency))
				ph.engines = append(ph.engines, fmt.Sprint(ses.status.Result.Engines))
				ph.sessions = append(ph.sessions, ses)
			}
			mu.Unlock()
		}
	})
	ph.wall = time.Since(start)
	ph.counters = diffCounters(before, readCounters(sv.m), ph.completed)
	return ph
}

// probe times, off the request path and on the serving deployment, the
// layers the server runs internally for this session's workflow: compile,
// analysis, optimize, canonical key, and — for plan-cache misses — the
// partition search; then the bare kernels and the codec on the tenant's
// inputs.
func (s *serveChurn) probe(sv *server, ses *session, tr *tracer, id int64, pr *probeStats) error {
	p := tr.start(nil, id, "probe")
	defer p.end()
	req := ses.shape.submitRequest(ses.lit)
	cat := musketeer.Catalog{}
	for name, spec := range req.Catalog {
		cat[name] = musketeer.Table{Path: spec.Path, Schema: musketeer.NewSchema(spec.Schema...)}
	}
	var wf *musketeer.Workflow
	var err error
	tr.timed(p, id, "frontends.compile", func() {
		switch ses.shape.frontend {
		case "hive":
			wf, err = sv.m.CompileHive(req.Source, cat)
		case "beer":
			wf, err = sv.m.CompileBEER(req.Source, cat)
		case "pig":
			wf, err = sv.m.CompilePig(req.Source, cat)
		default:
			err = fmt.Errorf("no probe for frontend %q", ses.shape.frontend)
		}
	})
	if err != nil {
		return fmt.Errorf("probe compile: %w", err)
	}
	if err := wf.BindTenant(s.tenants[ses.tenant]); err != nil {
		return err
	}
	tr.timed(p, id, "analysis.check", func() { wf.Check() })
	tr.timed(p, id, "core.optimize", func() { wf.Optimize() })
	tr.timed(p, id, "ir.plan_key", func() { core.PlanKey(wf.DAG(), engines.StandardEngines()) })
	if res := ses.status.Result; res != nil && !res.PlanCacheHit {
		tr.timed(p, id, "core.partition", func() { _, err = wf.Plan() })
		if err != nil {
			return fmt.Errorf("probe plan: %w", err)
		}
		if _, rec, ok := sv.m.Runs().Get(res.RunID); ok {
			for _, sp := range rec.Spans() {
				for _, a := range sp.Attrs() {
					if sp.Name == "partition-search" && a.Key == "candidates_explored" {
						pr.candidates = append(pr.candidates, float64(a.Int))
					}
				}
			}
		}
	}
	env := exec.Env{}
	rels := map[string]*musketeer.Relation{}
	for path, data := range s.staged[ses.tenant] {
		rel, err := relation.DecodeBytes(path, data)
		if err != nil {
			return err
		}
		env[path] = rel
		rels[path] = rel
	}
	var kenv exec.Env
	tr.timed(p, id, "exec.run_dag", func() { kenv, _, err = exec.RunDAG(wf.DAG(), env) })
	if err != nil {
		return fmt.Errorf("probe exec.RunDAG: %w", err)
	}
	if err := ses.shape.check(kenv[ses.shape.output], s.expected(ses.tenant, ses.shape, ses.lit)); err != nil {
		return fmt.Errorf("oracle mismatch on exec.RunDAG: %w", err)
	}
	return pr.codec(tr, p, id, rels)
}

func runServe(s *serveChurn, o options) (*report, error) {
	rep := newReport("serve-churn")
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return s.runTraced(rep, o, d)
	}
	var sessions []session
	pooled, err := runInterleaved(rep, o.setups, d, func(d time.Duration) (round, error) {
		sv, wu, err := s.deploy(false)
		if err != nil {
			return round{}, err
		}
		defer sv.stop()
		heap := heapAfterGC()
		ph := s.measure(sv, d, rep, nil, nil)
		sessions = append(sessions, ph.sessions...)
		return round{warm: wu, phase: ph.phaseResult, heapMB: heap, deployment: sv.m}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.note("latency_p99_ms %.4f ms (n=%d)", quantile(pooled.latencies, 0.99), len(pooled.latencies))
	s.notePlans(rep, sessions)
	return rep, nil
}

// notePlans reports plan-cache behaviour by variant kind and every change
// of engine set per (tenant, shape).
func (s *serveChurn) notePlans(rep *report, sessions []session) {
	var warmHits, warmN, freshHits, freshN int
	seq := map[string][]string{}
	for _, ses := range sessions {
		hit := ses.status.Result.PlanCacheHit
		if ses.fresh {
			freshN++
			if hit {
				freshHits++
			}
		} else {
			warmN++
			if hit {
				warmHits++
			}
		}
		k := s.tenants[ses.tenant] + "/" + ses.shape.name
		seq[k] = append(seq[k], fmt.Sprint(ses.status.Result.Engines))
	}
	rep.note("plan-cache hits: warm %d/%d, fresh %d/%d", warmHits, warmN, freshHits, freshN)
	for k, plans := range seq {
		for _, f := range engineFlips(plans) {
			rep.note("engine flip on %s: %s", k, f)
		}
	}
}

func (s *serveChurn) runTraced(rep *report, o options, d time.Duration) (*report, error) {
	sv, _, err := s.deploy(false)
	if err != nil {
		return nil, err
	}
	plain := s.measure(sv, d/2, rep, nil, nil)
	files := 0
	for _, t := range s.tenants {
		fs, err := sv.m.TenantFS(t)
		if err != nil {
			sv.stop()
			return nil, err
		}
		files += len(fs.List())
	}
	sv.stop()
	tsv, _, err := s.deploy(true)
	if err != nil {
		return nil, err
	}
	defer tsv.stop()
	tr := newTracer()
	var pr probeStats
	traced := s.measure(tsv, d/2, rep, tr, &pr)
	layerMetrics(rep, tr, plain.phaseResult, traced.latencies, &pr)
	rep.set("dfs.files_end", float64(files), len(s.tenants))
	var httpMS, queueMS, execMS, stageMS, fetchMS []float64
	for _, ses := range traced.sessions {
		sub, e1 := time.Parse(time.RFC3339Nano, ses.status.SubmittedAt)
		started, e2 := time.Parse(time.RFC3339Nano, ses.status.StartedAt)
		fin, e3 := time.Parse(time.RFC3339Nano, ses.status.FinishedAt)
		if err := errors.Join(e1, e2, e3); err != nil {
			return nil, fmt.Errorf("job timestamps: %w", err)
		}
		httpMS = append(httpMS, ms(ses.latency-fin.Sub(sub)))
		queueMS = append(queueMS, ms(started.Sub(sub)))
		execMS = append(execMS, ms(fin.Sub(started)))
		fetchMS = append(fetchMS, ms(ses.fetch))
		if ses.stage > 0 {
			stageMS = append(stageMS, ms(ses.stage))
		}
	}
	for name, xs := range map[string][]float64{
		"serve.http_ms": httpMS, "serve.queue_wait_ms": queueMS, "serve.exec_ms": execMS,
		"serve.stage_ms": stageMS, "serve.fetch_ms": fetchMS,
	} {
		rep.set(name, median(xs), len(xs))
	}
	if err := tr.write(filepath.Join(o.spansDir, fmt.Sprintf("serve-churn-seed%d.jsonl", o.seed))); err != nil {
		return nil, err
	}
	return rep, nil
}
