package wireload

import (
	"sync"
	"sync/atomic"
	"time"

	"voiceguard"
	"voiceguard/internal/emul"
	"voiceguard/internal/proxy"
	"voiceguard/internal/rng"
)

// echoCommandWire is a marker-bearing Echo voice-command spike on the
// wire (activation packet, p-138 marker, upload records) — the record
// lengths the streaming recognizer classifies as a command.
var echoCommandWire = []int{277, 138, 90, 113, 131, 1100, 1200, 1150}

// endRecordLen is the wire length of the end-of-command record that
// makes the cloud answer once the command is released.
const endRecordLen = 60

// guardClient is one emulated speaker session against the LiveGuard.
type guardClient struct {
	sp    *emul.SpeakerClient
	class sessionClass
	idx   int
}

// dialGuard opens a speaker session and registers its class under the
// address the guard will see.
func (h *harness) dialGuard(addr string, class sessionClass, idx int) (*guardClient, error) {
	sp, err := emul.DialSpeaker(addr)
	if err != nil {
		return nil, err
	}
	h.classes.Store(sp.LocalAddr(), class)
	return &guardClient{sp: sp, class: class, idx: idx}, nil
}

// sendCommand streams one recognizable voice command.
func sendCommand(sp *emul.SpeakerClient) error {
	if err := sp.SendPattern(echoCommandWire, emul.MsgCommand); err != nil {
		return err
	}
	return sp.SendPattern([]int{endRecordLen}, emul.MsgEnd)
}

// baselineGuard measures the command round trip straight against the
// cloud emulator — the guard plane's no-proxy floor.
func (h *harness) baselineGuard(cloudAddr string) []time.Duration {
	cfg := h.cfg
	rec := &latencyRecorder{}
	sem := make(chan struct{}, cfg.DialConcurrency)
	var wg sync.WaitGroup
	for i := 0; i < cfg.TCPSessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			sp, err := emul.DialSpeaker(cloudAddr)
			<-sem
			if err != nil {
				return
			}
			defer sp.Close()
			for b := 0; b < cfg.BaselineBursts; b++ {
				start := time.Now()
				if err := sendCommand(sp); err != nil {
					return
				}
				if _, err := sp.Await(h.echoTimeout()); err != nil {
					return
				}
				rec.add(time.Since(start))
			}
		}()
	}
	wg.Wait()
	return rec.samples
}

// runGuard is the guard-plane load run: the full recognizer pipeline
// on every session, with held commands adjudicated by class.
func (h *harness) runGuard() (Outcome, error) {
	cfg := h.cfg
	out := Outcome{
		Plane:       cfg.Plane,
		TCPSessions: cfg.TCPSessions,
		BudgetMax:   cfg.BudgetBytes,
	}

	cloud, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		return out, err
	}
	defer cloud.Close()

	var baseline []time.Duration
	if cfg.BaselineBursts > 0 {
		baseline = h.baselineGuard(cloud.Addr())
	}

	budget := proxy.NewHoldBudget(cfg.BudgetBytes)
	g, err := voiceguard.StartLiveGuard("127.0.0.1:0", cloud.Addr(), h.decide, cfg.IdleGap, h.liveOpts(budget)...)
	if err != nil {
		return out, err
	}

	smp := startSampler(budget, g.TrackedSessions)

	classSrc := rng.New(cfg.Seed).Split("class")
	classes := make([]sessionClass, cfg.TCPSessions)
	for i := range classes {
		classes[i] = classFor(classSrc, cfg)
	}
	rampStart := time.Now()
	clients := make([]*guardClient, cfg.TCPSessions)
	var setup atomic.Int64
	sem := make(chan struct{}, cfg.DialConcurrency)
	var dialWG sync.WaitGroup
	for i := 0; i < cfg.TCPSessions; i++ {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			sem <- struct{}{}
			c, err := h.dialGuard(g.Addr(), classes[i], i)
			<-sem
			if err != nil {
				return
			}
			clients[i] = c
			setup.Add(1)
		}(i)
	}
	dialWG.Wait()
	out.SetupSeconds = time.Since(rampStart).Seconds()
	if out.SetupSeconds > 0 {
		out.SessionsPerSec = float64(setup.Load()) / out.SetupSeconds
	}

	rec := &latencyRecorder{}
	var phaseWG sync.WaitGroup
	for _, c := range clients {
		if c == nil {
			continue
		}
		phaseWG.Add(1)
		go func(c *guardClient) {
			defer phaseWG.Done()
			h.guardSession(c, g.Addr(), rec)
		}(c)
	}
	phaseWG.Wait()

	close(h.stop)
	for _, c := range clients {
		if c != nil {
			_ = c.sp.Close()
		}
	}
	closeErr := g.Close()
	smp.close()

	h.fillMeasurements(&out, g, smp, budget, baseline, rec.samples)
	return out, closeErr
}

// guardSession runs one speaker's command loop against the guard.
func (h *harness) guardSession(c *guardClient, guardAddr string, rec *latencyRecorder) {
	cfg := h.cfg
	stagger := cfg.BurstEvery * time.Duration(c.idx) / time.Duration(cfg.TCPSessions)
	select {
	case <-h.stop:
		return
	case <-time.After(stagger):
	}
	for b := 0; b < cfg.MeasureBursts; b++ {
		switch c.class {
		case classLegit:
			start := time.Now()
			if err := sendCommand(c.sp); err != nil {
				return
			}
			frame, err := c.sp.Await(h.echoTimeout())
			if err != nil || frame.Type != emul.MsgResponse {
				return
			}
			rec.add(time.Since(start))
		case classDrop:
			// The drop breaks the TLS record sequence; the cloud aborts
			// the session, so the speaker reconnects — session churn.
			if err := sendCommand(c.sp); err == nil {
				_, _ = c.sp.Await(cfg.DecisionMean + cfg.DecisionJitter + 500*time.Millisecond)
			}
			_ = c.sp.Close()
			nc, err := h.dialGuard(guardAddr, classDrop, c.idx)
			if err != nil {
				return
			}
			h.reconnects.Add(1)
			c.sp = nc.sp
		case classStall:
			// The decision wedges; the hold deadline (if armed)
			// resolves the command. One command per session is enough
			// to pin held bytes against the budget.
			if b == 0 {
				if err := sendCommand(c.sp); err != nil {
					return
				}
			}
			select {
			case <-h.stop:
				return
			case <-time.After(cfg.BurstEvery):
			}
			continue
		}
		select {
		case <-h.stop:
			return
		case <-time.After(cfg.BurstEvery):
		}
	}
}
