package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	vgmetrics "voiceguard/internal/metrics"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond reports how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return int(float64(n) * (1 - p/100)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func perOp(v float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return v / float64(ops)
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// procSample is the process-wide state one timed phase is measured
// between: wall clock, CPU, allocation and GC CPU, and the program's
// own counters.
type procSample struct {
	wall     time.Time
	cpu      time.Duration
	allocs   uint64 // bytes allocated, cumulative
	mallocs  uint64 // objects allocated, cumulative
	gcCPU    float64
	totalCPU float64
	counters map[string]int64
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// processCPU returns the user+sys CPU the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail on Linux
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleProc() procSample {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	return procSample{
		wall:     time.Now(),
		cpu:      processCPU(),
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		allocs:   s[2].Value.Uint64(),
		mallocs:  s[3].Value.Uint64(),
		counters: counterTotals(vgmetrics.Default.Snapshot()),
	}
}

// phase is the difference between two samples.
type phase struct {
	wall, cpu     time.Duration
	allocBytes    float64
	mallocs       float64
	gcCPUPct      float64
	before, after map[string]int64
}

func between(a, b procSample) phase {
	p := phase{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocBytes: float64(b.allocs - a.allocs),
		mallocs:    float64(b.mallocs - a.mallocs),
		before:     a.counters,
		after:      b.counters,
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		p.gcCPUPct = 100 * (b.gcCPU - a.gcCPU) / tot
	}
	return p
}

// delta returns how much the named program counter (summed over its
// label sets) grew during the phase.
func (p phase) delta(name string) float64 { return float64(p.after[name] - p.before[name]) }

// counterTotals sums every counter of the snapshot over its label
// sets, keyed by name.
func counterTotals(s vgmetrics.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(s.Counters))
	for _, c := range s.Counters {
		out[c.Name] += c.Value
	}
	return out
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// numGoroutinesSettled returns the goroutine count once goroutines
// that were told to stop have exited (or after a second).
func numGoroutinesSettled() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}
