package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"musketeer"
)

// The traced run records one span around every public call the benchmark
// makes into a layer, in memory, and writes them out when the run ends.
// Spans of one workflow share its workflow ID. The program's own spans
// (pipeline, job, phase, while) are copied in from Result.Flight under the
// span of the call that produced them, with names prefixed "program.".

// span is one finished, recorded interval.
type span struct {
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent,omitempty"`
	Workflow int64   `json:"workflow"`
	Name     string  `json:"name"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
	start    time.Duration
	end      time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer is the in-memory span store. A nil *tracer records nothing, so
// the untraced path calls the same helpers at no cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span still running.
type openSpan struct {
	t *tracer
	s *span
}

// start opens a span; parent may be nil for a root span.
func (t *tracer) start(parent *openSpan, wf int64, name string) *openSpan {
	if t == nil {
		return nil
	}
	s := &span{Workflow: wf, Name: name, start: time.Since(t.epoch)}
	t.mu.Lock()
	t.next++
	s.ID = t.next
	t.mu.Unlock()
	if parent != nil {
		s.Parent = parent.s.ID
	}
	return &openSpan{t: t, s: s}
}

// end closes the span and files it.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.end = time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(parent *openSpan, wf int64, name string, fn func()) time.Duration {
	sp := t.start(parent, wf, name)
	begin := time.Now()
	fn()
	d := time.Since(begin)
	sp.end()
	return d
}

// importFlight copies a program flight recorder's spans under parent. The
// recorder's clock starts inside the call parent wraps, so its offsets are
// placed from parent's start.
func (t *tracer) importFlight(parent *openSpan, rec *musketeer.FlightRecorder) {
	if t == nil || parent == nil || rec == nil {
		return
	}
	src := rec.Spans()
	ids := make(map[int64]int64, len(src))
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range src {
		t.next++
		ids[s.ID] = t.next
	}
	for _, s := range src {
		p := parent.s.ID
		if s.Parent != 0 {
			if id, ok := ids[s.Parent]; ok {
				p = id
			}
		}
		t.spans = append(t.spans, &span{
			ID: ids[s.ID], Parent: p, Workflow: parent.s.Workflow,
			Name:  "program." + s.Cat + "/" + s.Name,
			start: parent.s.start + s.Start,
			end:   parent.s.start + s.Start + s.Dur,
		})
	}
}

// all returns the recorded spans sorted by start.
func (t *tracer) all() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]*span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// selfTimes maps span ID to the span's duration minus the part of its
// interval that its children cover (children may overlap one another).
func selfTimes(spans []*span) map[int64]time.Duration {
	kids := map[int64][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			a, b := max(c.start, s.start), min(c.end, s.end)
			if b <= a {
				continue
			}
			switch {
			case cur < 0:
				cur, curEnd = a, b
			case a > curEnd:
				covered += curEnd - cur
				cur, curEnd = a, b
			case b > curEnd:
				curEnd = b
			}
		}
		if cur >= 0 {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// perWorkflowSelfMS sums, for each workflow, the self time of the spans
// named name, and returns the per-workflow totals in milliseconds
// (workflows without such a span contribute nothing).
func perWorkflowSelfMS(spans []*span, self map[int64]time.Duration, name string) []float64 {
	sum := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			sum[s.Workflow] += self[s.ID]
		}
	}
	return sortedValuesMS(sum)
}

// durationsMS lists the durations of every span named name.
func durationsMS(spans []*span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func sortedValuesMS(m map[int64]time.Duration) []float64 {
	out := make([]float64, 0, len(m))
	for _, d := range m {
		out = append(out, ms(d))
	}
	sort.Float64s(out)
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		s.StartUS = float64(s.start) / 1e3
		s.EndUS = float64(s.end) / 1e3
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
