package decision

import (
	"sync"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/metrics"
	"voiceguard/internal/mobility"
	"voiceguard/internal/radio"
)

// Trace-mean memoization. A recorded trace is deterministic means plus
// per-recording noise: the means depend only on the radio model's
// deterministic field (radio.ModelIdent), the advertiser position, and
// the sampled path — and the same paths recur constantly. Within one
// simulation the climbing owner walks the same stair routes and
// bystanders idle at the same deployment spots on every motion event;
// across same-seed runs (a fault study's per-profile replays, repeated
// benchmark iterations) every wander path recurs too, because
// mobility's path memos make recurring paths pointer-identical. The
// memo computes the 40-sample mean vector once per (model, tx, path)
// and lets each recording draw only its noise, skipping the per-sample
// path-loss, wall-crossing, and shadow-cell work.

// traceMeanKey identifies one deterministic mean vector. The path is
// keyed by pointer: mobility.NewRoutePath and NewWanderPath return
// memoized immutable paths, so a recurring path has a stable address.
type traceMeanKey struct {
	model  radio.ModelIdent
	tx     floorplan.Position
	path   *mobility.Path
	offset time.Duration
	step   time.Duration
	n      int
}

var traceMeans struct {
	mu sync.RWMutex
	m  map[traceMeanKey][]float64
}

// traceMeanCacheCap bounds the memo; once full, further misses compute
// without inserting (correctness unaffected).
const traceMeanCacheCap = 16384

// Memo counters on metrics.Default: one add per lookup.
const (
	MetricTraceMeanHits   = "decision_trace_mean_hits_total"
	MetricTraceMeanMisses = "decision_trace_mean_misses_total"
)

var (
	mTraceMeanHits   = metrics.NewCounter(MetricTraceMeanHits)
	mTraceMeanMisses = metrics.NewCounter(MetricTraceMeanMisses)
)

// traceMeanVector returns the deterministic link means for n samples
// along the path, step apart, starting at offset — memoized, and
// bit-identical to sampling the positions through radio.MeanBatch
// directly. The returned slice is shared and must not be mutated.
func traceMeanVector(sc *ble.Scanner, adv ble.Advertiser, path *mobility.Path, offset, step time.Duration, n int) []float64 {
	key := traceMeanKey{
		model: sc.Model.Ident(), tx: adv.Pos,
		path: path, offset: offset, step: step, n: n,
	}
	traceMeans.mu.RLock()
	means, ok := traceMeans.m[key]
	traceMeans.mu.RUnlock()
	if ok {
		mTraceMeanHits.Inc()
		return means
	}
	mTraceMeanMisses.Inc()

	positions := make([]floorplan.Position, n)
	path.SampleInto(offset, step, positions)
	means = make([]float64, n)
	sc.Model.MeanBatch(adv.Pos, positions, means)

	traceMeans.mu.Lock()
	if traceMeans.m == nil {
		traceMeans.m = make(map[traceMeanKey][]float64)
	}
	if len(traceMeans.m) < traceMeanCacheCap {
		traceMeans.m[key] = means
	}
	traceMeans.mu.Unlock()
	return means
}
