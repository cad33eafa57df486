package main

import (
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
	"time"

	"voiceguard/internal/fleet"
	"voiceguard/internal/parallel"
	"voiceguard/internal/rng"
	"voiceguard/internal/scenario"
	"voiceguard/internal/stats"
)

// simConfig sizes one sim workload run.
type simConfig struct {
	cold      bool // a fresh fleet seed per batch, so every memo misses
	seed      int64
	seconds   float64
	trace     bool
	homes     int // homes per batch
	days      int // days per home
	setupReps int // set-up repetitions; setup_s is their median
}

const (
	// fleetShards is the fleet manager's shard count, scenario.Fleet's
	// default.
	fleetShards = 16
	// heapBatch is the timed batch after which the live heap is read:
	// a fixed amount of work, so a faster program that runs more
	// batches (and fills more of the cold memos) does not read as a
	// bigger heap.
	heapBatch = 8
	// simTailPct is the sim's latency tail: p95 leaves well over a
	// hundred homes beyond it in a run.
	simTailPct = 95.0
)

func defaultSim(o options, cold bool) simConfig {
	return simConfig{
		cold:      cold,
		seed:      o.seed,
		seconds:   o.seconds,
		trace:     o.trace,
		homes:     36,
		days:      2,
		setupReps: 5,
	}
}

// benchHome is the benchmark's fleet.Home: it forwards each day to
// the scenario home and times the call from outside.
type benchHome struct {
	h     *scenario.Home
	op    uint64
	rec   *recorder
	round *atomic.Uint64 // span ID of the round in flight
	setup time.Duration
	days  []time.Duration
}

func (b *benchHome) Days() int { return b.h.Days() }

// RunDay is only ever called by the shard that owns the tenant, one
// day at a time, so days needs no lock; the batch reads it after
// RunRound has returned.
func (b *benchHome) RunDay(day int) {
	t0 := time.Now()
	b.h.RunDay(day)
	t1 := time.Now()
	b.days = append(b.days, t1.Sub(t0))
	b.rec.add(span{parent: b.round.Load(), op: b.op, layer: "scenario.RunDay", start: t0, end: t1})
}

// simAcc accumulates the timed batches of one run.
type simAcc struct {
	ops, failed int
	confusion   stats.Confusion

	homeMs, setupMs, dayMs, registerUs, roundMs []float64
	// batchRate and batchCPU are each timed batch's completed ops per
	// wall second and CPU ms per op; their medians are the reported
	// rates, so a stall on the shared machine moves one batch, not the
	// run.
	batchRate, batchCPU []float64
	// batchP50 is each timed batch's median home latency; op_ms_p50 is
	// their median, for the same reason.
	batchP50 []float64

	sumSetup, sumDay time.Duration
	buildWall        time.Duration // NewHome fan-out phases, wall
	roundWall        time.Duration
	batchWall        time.Duration

	tracedOps, untracedOps   int
	tracedWall, untracedWall time.Duration
}

// simRun is one sim workload run.
type simRun struct {
	cfg     simConfig
	rec     *recorder
	workers int
	ops     atomic.Uint64
	// ref is the first outcome of each home on homes_warm: every
	// replayed batch must reproduce it exactly.
	ref []*scenario.Outcome
}

// batchSeed is the fleet seed of timed batch b (b < 0: set-up
// repetition -b-1). homes_warm replays one seed everywhere.
func (s *simRun) batchSeed(b int) int64 {
	if !s.cfg.cold {
		return rng.New(s.cfg.seed).Split("homes_warm").Seed()
	}
	if b < 0 {
		return rng.New(s.cfg.seed).SplitN("homes_cold/setup", -b-1).Seed()
	}
	return rng.New(s.cfg.seed).SplitN("homes_cold", b).Seed()
}

// runBatch builds a batch of heterogeneous homes, registers them with
// a fresh fleet manager, and runs day-lockstep rounds until the fleet
// drains, timing every wrapped call. acc is nil for set-up batches.
func (s *simRun) runBatch(plans scenario.FleetPlans, seed int64, acc *simAcc) (done int, wall time.Duration) {
	cfg := s.cfg
	rec := s.rec
	batch := span{id: rec.nextID(), layer: "vgperf.batch", start: time.Now()}
	var round atomic.Uint64

	type built struct {
		home *benchHome
		err  error
	}
	buildStart := time.Now()
	homes := parallel.Map(cfg.homes, func(i int) built {
		hc := scenario.FleetHomeConfig(seed, i, cfg.days, plans)
		op := s.ops.Add(1)
		t0 := time.Now()
		h, err := scenario.NewHome(hc)
		t1 := time.Now()
		rec.add(span{parent: batch.id, op: op, layer: "scenario.NewHome", start: t0, end: t1})
		if err != nil {
			return built{err: err}
		}
		return built{home: &benchHome{h: h, op: op, rec: rec, round: &round, setup: t1.Sub(t0)}}
	})
	buildWall := time.Since(buildStart)

	m := fleet.New(fleetShards)
	var registerUs []float64
	for i := range homes {
		b := &homes[i]
		if b.err != nil {
			continue
		}
		t0 := time.Now()
		err := m.Register(fleet.NewTenant(b.home.h.ID(), b.home))
		t1 := time.Now()
		if err != nil {
			b.err = err
			continue
		}
		registerUs = append(registerUs, float64(t1.Sub(t0))/float64(time.Microsecond))
		rec.add(span{parent: batch.id, op: b.home.op, layer: "fleet.Register", start: t0, end: t1})
	}

	var roundMs []float64
	var roundWall time.Duration
	for {
		id := rec.nextID()
		round.Store(id)
		t0 := time.Now()
		n := m.RunRound()
		t1 := time.Now()
		rec.add(span{id: id, parent: batch.id, layer: "fleet.RunRound", start: t0, end: t1})
		if n == 0 {
			break
		}
		roundMs = append(roundMs, ms(t1.Sub(t0)))
		roundWall += t1.Sub(t0)
	}
	batch.end = time.Now()
	rec.add(batch)

	if acc == nil {
		if !cfg.cold && s.ref == nil {
			s.ref = make([]*scenario.Outcome, len(homes))
			for i, b := range homes {
				if b.err == nil {
					s.ref[i] = b.home.h.Outcome()
				}
			}
		}
		return 0, batch.end.Sub(batch.start)
	}
	batchOps, failedHomes := 0, 0
	for i, b := range homes {
		if !s.checkHome(i, b.home, b.err) {
			acc.failed += cfg.days
			acc.ops += cfg.days
			failedHomes++
			continue
		}
		h := b.home
		acc.ops += cfg.days
		batchOps += cfg.days
		acc.confusion.Merge(h.h.Outcome().Confusion)
		acc.setupMs = append(acc.setupMs, ms(h.setup))
		acc.sumSetup += h.setup
		total := h.setup
		for _, d := range h.days {
			acc.dayMs = append(acc.dayMs, ms(d))
			acc.sumDay += d
			total += d
		}
		acc.homeMs = append(acc.homeMs, ms(total)/float64(len(h.days)))
	}
	acc.batchP50 = append(acc.batchP50, median(acc.homeMs[len(acc.homeMs)-len(homes)+failedHomes:]))
	acc.registerUs = append(acc.registerUs, registerUs...)
	acc.roundMs = append(acc.roundMs, roundMs...)
	acc.buildWall += buildWall
	acc.roundWall += roundWall
	wall = batch.end.Sub(batch.start)
	acc.batchWall += wall
	if rec.on.Load() {
		acc.tracedOps += batchOps
		acc.tracedWall += wall
	} else {
		acc.untracedOps += batchOps
		acc.untracedWall += wall
	}
	return batchOps, wall
}

// checkHome is the op output check: the home was built, ran every
// day, and recorded one outcome per scheduled command. On homes_warm
// the replay must also reproduce the first run bit for bit.
func (s *simRun) checkHome(i int, h *benchHome, err error) bool {
	if err != nil || h == nil {
		return false
	}
	c := h.h.Config()
	want := c.Days * (c.LegitPerDay + c.AttackPerDay)
	o := h.h.Outcome()
	if h.h.DaysRun() != c.Days || len(h.days) != c.Days || len(o.Records) != want || o.Confusion.Total() != want {
		return false
	}
	if s.ref != nil {
		ref := s.ref[i]
		if ref == nil || ref.Confusion != o.Confusion || !reflect.DeepEqual(ref.Records, o.Records) {
			return false
		}
	}
	return true
}

// runSim runs homes_cold or homes_warm: set-up repetitions, then
// timed batches until the time is up.
func runSim(cfg simConfig, w io.Writer) (*report, error) {
	s := &simRun{cfg: cfg, rec: &recorder{}, workers: parallel.Workers()}
	start := time.Now()

	// Set-up: build the shared floorplans once, as a fleet process
	// does, then run warm-up batches on them; setup_s is the median
	// repetition and the first one also pays for the plans. On
	// homes_warm the warm-up batches run the timed seed, so every memo
	// is warm before timing starts.
	var setups []float64
	var plans scenario.FleetPlans
	for k := 0; k < cfg.setupReps; k++ {
		t0 := time.Now()
		if k == 0 {
			plans = scenario.NewFleetPlans()
		}
		s.runBatch(plans, s.batchSeed(-k-1), nil)
		setups = append(setups, time.Since(t0).Seconds())
	}

	acc := &simAcc{}
	var heap float64
	before := sampleProc()
	firstOp := before.wall.Sub(start)
	for b := 0; ; b++ {
		// A traced run alternates traced and untraced batches; the
		// difference between the two is the tracing overhead.
		s.rec.on.Store(cfg.trace && b%2 == 0)
		cpu0 := processCPU()
		n, wall := s.runBatch(plans, s.batchSeed(b), acc)
		acc.batchCPU = append(acc.batchCPU, perOp(ms(processCPU()-cpu0), cfg.homes*cfg.days))
		acc.batchRate = append(acc.batchRate, float64(n)/wall.Seconds())
		if b == heapBatch-1 {
			heap = heapLiveMB()
		}
		if time.Since(before.wall).Seconds() >= cfg.seconds {
			break
		}
	}
	if heap == 0 {
		heap = heapLiveMB()
	}
	s.rec.on.Store(false)
	after := sampleProc()
	ph := between(before, after)

	rep := &report{attempted: acc.ops, failed: acc.failed, values: map[string]float64{}}
	v := rep.values
	v["setup_s"] = median(setups)
	v["ops_per_sec"] = median(acc.batchRate)
	v["op_ms_p50"] = median(acc.batchP50)
	v["op_ms_tail"] = percentile(acc.homeMs, simTailPct)
	v["cpu_ms_per_op"] = median(acc.batchCPU)
	v["alloc_kb_per_op"] = perOp(ph.allocBytes/1024, acc.ops)
	v["accuracy_pct"] = 100 * acc.confusion.Accuracy()

	v["scenario.setup_ms_p50"] = median(acc.setupMs)
	v["scenario.setup_ms_tail"] = percentile(acc.setupMs, simTailPct)
	v["scenario.setup_share_pct"] = 100 * pct(acc.sumSetup, acc.sumSetup+acc.sumDay)
	v["scenario.day_ms_p50"] = median(acc.dayMs)
	v["scenario.day_ms_tail"] = percentile(acc.dayMs, simTailPct)
	v["fleet.register_us"] = median(acc.registerUs)
	v["fleet.round_ms_p50"] = median(acc.roundMs)
	v["fleet.rounds_per_op"] = perOp(ph.delta(fleet.MetricRounds), acc.ops)
	barrierIdle := time.Duration(s.workers)*acc.roundWall - acc.sumDay
	v["parallel.barrier_idle_pct"] = 100 * pct(barrierIdle, time.Duration(s.workers)*acc.roundWall)
	v["push.requests_per_op"] = perOp(ph.delta("push_requests_total"), acc.ops)
	v["decision.rssi_queries_per_op"] = perOp(ph.delta("decision_rssi_queries_total"), acc.ops)
	v["guard.spikes_per_op"] = perOp(ph.delta("guard_spikes_total"), acc.ops)
	v["guard.commands_per_op"] = perOp(ph.delta("guard_commands_recognized_total"), acc.ops)
	v["recognize.signature_matches_per_op"] = perOp(ph.delta("recognize_tracker_signature_matches_total"), acc.ops)
	v["runtime.gc_cpu_pct"] = ph.gcCPUPct
	v["runtime.allocs_per_op"] = perOp(ph.mallocs, acc.ops)
	v["runtime.goroutines_end"] = float64(numGoroutinesSettled())
	v["op.samples"] = float64(len(acc.homeMs))
	v["op.tail_percentile"] = simTailPct
	v["op.failed_pct"] = 100 * perOp(float64(acc.failed), acc.ops)
	if cfg.trace && acc.tracedOps > 0 && acc.untracedOps > 0 {
		tracedRate := float64(acc.tracedOps) / acc.tracedWall.Seconds()
		untracedRate := float64(acc.untracedOps) / acc.untracedWall.Seconds()
		v["trace.overhead_pct"] = 100 * (untracedRate/tracedRate - 1)
	}
	v["heap_live_mb"] = heap

	// Worker-time accounting: every worker-second of the timed batches
	// is NewHome or RunDay self time, idle at a fan-out barrier, or
	// residue (registration, dispatch, the benchmark's own checks).
	budget := time.Duration(s.workers) * acc.batchWall
	buildIdle := time.Duration(s.workers)*acc.buildWall - acc.sumSetup
	residue := budget - acc.sumSetup - acc.sumDay - barrierIdle - buildIdle
	v["trace.residue_pct"] = 100 * pct(residue, budget)

	name := "homes_warm"
	if cfg.cold {
		name = "homes_cold"
	}
	fmt.Fprintf(w, "== %s seed=%d homes/batch=%d days=%d workers=%d ==\n", name, cfg.seed, cfg.homes, cfg.days, s.workers)
	fmt.Fprintf(w, "set-up: reps %v s (median %.3f s); start to first timed op %.3f s\n", setups, v["setup_s"], firstOp.Seconds())
	fmt.Fprintf(w, "ops: %d home-days attempted, %d failed, %d homes; op latency p%g over %d samples (%d beyond)\n",
		acc.ops, acc.failed, len(acc.homeMs), simTailPct, len(acc.homeMs), beyond(len(acc.homeMs), simTailPct))
	fmt.Fprintf(w, "worker-time accounting over %d workers x %.3f s:\n", s.workers, acc.batchWall.Seconds())
	for _, row := range []struct {
		name string
		d    time.Duration
	}{
		{"scenario.NewHome self", acc.sumSetup},
		{"scenario.RunDay self", acc.sumDay},
		{"fleet barrier idle", barrierIdle},
		{"NewHome fan-out idle", buildIdle},
		{"residue", residue},
	} {
		fmt.Fprintf(w, "  %-24s %10.2f ms %7.2f%%\n", row.name, ms(row.d), 100*pct(row.d, budget))
	}
	if cfg.trace {
		rep.spans = s.rec.snapshot()
		fmt.Fprintf(w, "per-layer self time (traced batches, %d spans; shares of workers x wall):\n", len(rep.spans))
		printSelfTimes(w, selfTimes(rep.spans), time.Duration(s.workers)*acc.tracedWall)
		fmt.Fprintf(w, "tracing overhead: %.2f%% (untraced vs traced ops_per_sec)\n", v["trace.overhead_pct"])
		v["trace.spans"] = float64(len(rep.spans))
	}
	return rep, nil
}
