package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"musketeer"
)

// quantile is the nearest-rank q-quantile of xs (0 when empty); xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapAfterGC is the live heap, in MB, right after forced collections. It
// collects twice: the first collection only moves sync.Pool contents (HTTP
// and codec buffers) to the pools' victim caches, the second frees them.
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / 1e6
}

// processSample is a point-in-time reading of the Go runtime's allocation
// and CPU accounting; the difference of two readings covers one phase.
type processSample struct {
	totalAlloc      uint64
	gcCPU, totalCPU float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleProcess() processSample {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	ss := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		ss[i].Name = name
	}
	metrics.Read(ss)
	return processSample{totalAlloc: st.TotalAlloc, gcCPU: ss[0].Value.Float64(), totalCPU: ss[1].Value.Float64()}
}

// counters is a reading of the deployment's metrics registry, taken at
// the start and end of a measured phase.
type counters struct {
	snap musketeer.MetricsSnapshot
	cal  uint64
	proc processSample
}

func readCounters(m *musketeer.Musketeer) counters {
	return counters{snap: m.Metrics().Snapshot(), cal: m.Calibration().Version(), proc: sampleProcess()}
}

func (c counters) counter(name string) int64 { return c.snap.Counters[name] }

// phaseCounters are the registry and runtime deltas of one measured
// phase, normalized per completed workflow where that is the unit.
type phaseCounters struct {
	calBumps       float64
	hits, misses   int64
	jobsPerWF      float64
	queueWaitP50MS float64
	pullBytesPerWF float64
	pushBytesPerWF float64
	allocMBPerWF   float64
	gcCPUFrac      float64
}

func diffCounters(a, b counters, wfs int) phaseCounters {
	per := func(v float64) float64 {
		if wfs == 0 {
			return 0
		}
		return v / float64(wfs)
	}
	d := func(name string) int64 { return b.counter(name) - a.counter(name) }
	pc := phaseCounters{
		calBumps:       float64(b.cal - a.cal),
		hits:           d("plan_cache_hit_total"),
		misses:         d("plan_cache_miss_total"),
		jobsPerWF:      per(float64(d("engine_jobs_total"))),
		pullBytesPerWF: per(float64(d("dfs_pull_bytes_total"))),
		pushBytesPerWF: per(float64(d("dfs_push_bytes_total"))),
		allocMBPerWF:   per(float64(b.proc.totalAlloc-a.proc.totalAlloc) / 1e6),
	}
	if cpu := b.proc.totalCPU - a.proc.totalCPU; cpu > 0 {
		pc.gcCPUFrac = (b.proc.gcCPU - a.proc.gcCPU) / cpu
	}
	hb, ha := b.snap.Histograms["sched_queue_wait_ms"], a.snap.Histograms["sched_queue_wait_ms"]
	if len(ha.Counts) == len(hb.Counts) {
		delta := hb
		delta.Counts = make([]int64, len(hb.Counts))
		for i := range hb.Counts {
			delta.Counts[i] = hb.Counts[i] - ha.Counts[i]
		}
		delta.Count = hb.Count - ha.Count
		delta.Sum = hb.Sum - ha.Sum
		pc.queueWaitP50MS = delta.Quantile(0.5)
	} else {
		pc.queueWaitP50MS = hb.Quantile(0.5)
	}
	return pc
}

func (pc phaseCounters) hitRatio() float64 {
	if pc.hits+pc.misses == 0 {
		return 0
	}
	return float64(pc.hits) / float64(pc.hits+pc.misses)
}
