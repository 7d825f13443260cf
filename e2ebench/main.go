// Command e2ebench is Musketeer's end-to-end benchmark: submit-to-result
// latency and throughput of the library and serve paths on three seeded
// workloads, every output checked against an independent oracle, and — in
// a separate traced run — per-layer times taken from outside, around calls
// into each layer's public functions.
//
//	e2ebench --workload q17-batch|pagerank-loop|serve-churn|all \
//	         --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. Any oracle
// mismatch or failed operation makes the exit status non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

var workloadNames = []string{"q17-batch", "pagerank-loop", "serve-churn"}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	// scale multiplies every input size (1 = the sizes BENCHMARK.json
	// describes; the self-tests run smaller).
	scale float64
	// setups is how many times an untraced run sets up a deployment;
	// setup_s is their median.
	setups   int
	spansDir string
}

// report is one workload's result.
type report struct {
	workload          string
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	notes             []string
	errs              []string
}

func newReport(name string) *report {
	return &report{workload: name, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation; the first few messages are kept.
func (r *report) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func main() {
	o := options{scale: 1, setups: 3, spansDir: filepath.Join(".bench_build", "spans")}
	var workload string
	var traceFlag int
	flag.StringVar(&workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1

	var names []string
	switch {
	case workload == "all":
		names = workloadNames
	case slices.Contains(workloadNames, workload):
		names = []string{workload}
	default:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown --workload %q\n", workload)
		os.Exit(2)
	}
	fmt.Printf("# e2ebench seed=%d seconds=%g trace=%v GOMAXPROCS=%d nproc=%d go=%s\n",
		o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	var reps []*report
	for _, name := range names {
		rep, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printReport(rep, o.trace)
		reps = append(reps, rep)
	}
	line, ok := resultLine(reps, o.trace)
	fmt.Println(line)
	if !ok {
		os.Exit(1)
	}
}

// runWorkload generates the named workload's inputs from the seed and runs
// it. An error means the run could not be carried out at all.
func runWorkload(name string, o options) (*report, error) {
	switch name {
	case "q17-batch":
		return runLibrary(q17Batch(o.seed, o.scale), o)
	case "pagerank-loop":
		return runLibrary(pageRankLoop(o.seed, o.scale), o)
	case "serve-churn":
		return runServe(newServeChurn(o.seed, o.scale), o)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// printReport writes the human-readable lines: every metric by name, with
// its unit and sample count, then the notes and any failures.
func printReport(r *report, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Printf("## %s: attempted=%d failed=%d failed_frac=%g\n", r.workload, r.attempted, r.failed, failedFrac(r))
	for _, d := range defs {
		fmt.Printf("%-28s %14.4f %-6s n=%-6d %s\n", d.name, r.values[d.name], d.unit, r.samples[d.name], d.moves)
	}
	for _, n := range r.notes {
		fmt.Printf("note: %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Printf("FAIL: %s\n", e)
	}
}

func failedFrac(r *report) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine renders the final JSON line. With several workloads each
// metric name is prefixed by its workload.
func resultLine(reps []*report, trace bool) (string, bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, d := range defs {
			name := d.name
			if len(reps) > 1 {
				name = r.workload + "." + d.name
			}
			res.Metrics[name] = jsonMetric{Value: r.values[d.name], Unit: d.unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // only a non-finite metric fails to marshal, and every metric is guarded against one
	}
	return string(b), res.Correct
}

// engineFlips describes every change of engine set along a sequence of
// workflows, so a plan that moves mid-run is reported, never hidden.
func engineFlips(seq []string) []string {
	var out []string
	for i := 1; i < len(seq); i++ {
		if seq[i] != seq[i-1] {
			out = append(out, fmt.Sprintf("%s→%s at workflow %d", seq[i-1], seq[i], i+1))
		}
	}
	return out
}

// untilDeadline runs fn in a closed loop for d and returns the wall time
// actually spent.
func untilDeadline(d time.Duration, fn func()) time.Duration {
	start := time.Now()
	for time.Since(start) < d {
		fn()
	}
	return time.Since(start)
}
