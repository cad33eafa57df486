package voiceguard

import (
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/obs"
)

// DefaultLiveHoldP99Max bounds the wire plane's p99 hold duration: a
// held burst should be adjudicated well before the speaker's cloud
// session or the user notices the stall.
const DefaultLiveHoldP99Max = 2 * time.Second

// LiveObjectives returns the wire plane's SLO set: the stock pipeline
// objectives the wire records, plus the live hold-latency bound,
// evaluated over the metrics `vgproxy -metrics-addr` serves. The
// stock decision-latency objective is left out: a DecisionFunc runs
// outside internal/decision and is timed by live-hold-p99 instead, so
// decision_latency_seconds never has data on the wire.
func LiveObjectives() []obs.Objective {
	var live []obs.Objective
	for _, o := range obs.DefaultObjectives() {
		if o.Metric != decision.MetricLatency {
			live = append(live, o)
		}
	}
	return append(live, obs.Objective{
		Name:     "live-hold-p99",
		Kind:     obs.SLOLatency,
		Metric:   MetricLiveHoldSeconds,
		Quantile: 0.99,
		Max:      DefaultLiveHoldP99Max,
	})
}
