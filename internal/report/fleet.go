package report

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"voiceguard/internal/scenario"
)

// FleetTable renders a fleet run: aggregate protection quality,
// fleet-wide decision latency, throughput in homes/sec, and the worst
// homes by verification p99 so a thousand-home table stays readable.
// elapsed is the wall time the caller measured around scenario.Fleet
// (the scenario package itself is wall-clock free).
func FleetTable(out *scenario.FleetOutcome, elapsed time.Duration) string {
	cfg := out.Config
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet engine: %d heterogeneous homes x %d days\n\n", cfg.Homes, cfg.Days)
	fmt.Fprintf(&b, "aggregate: accuracy %.2f%%  precision %.2f%%  recall %.2f%%  (%d commands, %d degraded verdicts)\n",
		100*out.Confusion.Accuracy(), 100*out.Confusion.Precision(), 100*out.Confusion.Recall(),
		out.Commands, out.Degraded)
	fmt.Fprintf(&b, "verification latency: mean %.2fs  p50 %.2fs  p99 %.2fs\n",
		out.Latency.Mean, out.Latency.P50, out.Latency.P99)
	if elapsed > 0 {
		fmt.Fprintf(&b, "throughput: %.1f homes/sec, %.1f home-days/sec (%d home-days in %v)\n",
			float64(cfg.Homes)/elapsed.Seconds(),
			float64(out.HomeDays)/elapsed.Seconds(),
			out.HomeDays, elapsed.Round(time.Millisecond))
	}

	// Worst homes by per-home verification p99 — the rows an operator
	// would chase first, mirroring vgtop's fleet section.
	type homeRow struct {
		home     string
		plan     string
		p99      float64
		accuracy float64
		degraded int
	}
	rows := make([]homeRow, 0, len(out.Homes))
	for _, o := range out.Homes {
		r := homeRow{
			home:     o.Config.Home,
			plan:     o.Config.Plan.Name,
			accuracy: 100 * o.Confusion.Accuracy(),
		}
		var secs []float64
		for _, rec := range o.Records {
			if rec.Recognized {
				secs = append(secs, rec.Verification.Seconds())
			}
			if rec.Degraded {
				r.degraded++
			}
		}
		sort.Float64s(secs)
		if len(secs) > 0 {
			r.p99 = secs[(len(secs)*99)/100]
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].p99 != rows[j].p99 {
			return rows[i].p99 > rows[j].p99
		}
		if rows[i].degraded != rows[j].degraded {
			return rows[i].degraded > rows[j].degraded
		}
		return rows[i].home < rows[j].home
	})
	const topK = 8
	if len(rows) > topK {
		rows = rows[:topK]
	}
	fmt.Fprintf(&b, "\nworst %d homes by verification p99:\n", len(rows))
	w := tabwriter.NewWriter(&b, 4, 0, 2, ' ', 0)
	fmt.Fprintln(w, "home\tplan\tp99\taccuracy\tdegraded\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.2fs\t%.2f%%\t%d\t\n", r.home, r.plan, r.p99, r.accuracy, r.degraded)
	}
	_ = w.Flush()
	return b.String()
}
