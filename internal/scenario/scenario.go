// Package scenario reproduces the paper's evaluation protocol: the
// 7-day real-world experiments behind Tables II-IV, the traffic
// recognition study of Table I, the RSSI maps of Figures 8/9, the
// stair-trace study of Figure 10, and the delay analyses of Figures 6
// and 7.
package scenario

import (
	"fmt"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/corpus"
	"voiceguard/internal/decision"
	"voiceguard/internal/faults"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/guard"
	"voiceguard/internal/metrics"
	"voiceguard/internal/mobility"
	"voiceguard/internal/pcap"
	"voiceguard/internal/push"
	"voiceguard/internal/radio"
	"voiceguard/internal/recognize"
	"voiceguard/internal/rng"
	"voiceguard/internal/sensor"
	"voiceguard/internal/simtime"
	"voiceguard/internal/stats"
	"voiceguard/internal/trafficgen"
)

// SpeakerKind selects the emulated smart speaker.
type SpeakerKind int

// Speakers under test.
const (
	Echo SpeakerKind = iota + 1
	GHM
)

// String names the speaker.
func (k SpeakerKind) String() string {
	switch k {
	case Echo:
		return "Echo Dot"
	case GHM:
		return "Google Home Mini"
	default:
		return fmt.Sprintf("SpeakerKind(%d)", int(k))
	}
}

// GHMDispatchDelay models the Google Home Mini's extra query dispatch
// overhead (on-demand flow setup), which makes its Fig. 7 average
// slightly higher than the Echo Dot's.
const GHMDispatchDelay = 450 * time.Millisecond

// DeviceSpec names one legitimate user's device.
type DeviceSpec struct {
	ID       string
	Hardware radio.Device
}

// Config parameterises a multi-day experiment.
type Config struct {
	Plan    *floorplan.Plan
	Spot    string // deployment location name ("A" or "B")
	Speaker SpeakerKind
	Devices []DeviceSpec

	// Home labels this run's metric series in the dimensional
	// observability plane (the `home` label on decision latency, guard
	// verdicts, and push round-trips). Fleet studies give every
	// tenant/run a distinct Home so per-run p99s and SLOs can be read
	// back from one shared registry. Empty leaves the home dimension
	// unset.
	Home string

	Days         int
	LegitPerDay  int // owner commands per day (default 13)
	AttackPerDay int // malicious commands per day (default 9)

	// DisableFloorTracking turns off the §V-B2 floor-level mechanism
	// (the ablation). Tracking is active by default on multi-floor
	// plans.
	DisableFloorTracking bool

	// RecordCapture retains every packet the guard saw in
	// Outcome.Capture (pcap.WriteCapture can persist it for offline
	// analysis). Off by default: multi-day runs capture tens of
	// thousands of packets.
	RecordCapture bool

	// RadioParams overrides the propagation-model parameters (nil
	// uses radio.DefaultParams) — the noise-sensitivity study sweeps
	// the shadowing and measurement-noise terms through it.
	RadioParams *radio.Params

	// BackgroundTraffic mixes unrelated home-network chatter
	// (laptops, a streaming TV) into the guard's capture throughout
	// each day, stressing the recognizer's flow filtering.
	BackgroundTraffic bool

	// Faults injects the given fault profile into the push channel
	// for the whole run (nil runs a clean channel). The profile's
	// plan is seeded from the run's root stream, so a seed replays
	// the same faults at the same instants.
	Faults *faults.Profile

	// Degraded selects the guard's policy for path-dead verdicts —
	// fail-closed (default) blocks held traffic, fail-open releases
	// it.
	Degraded guard.DegradedPolicy

	// Start is the simulated epoch the home's clock begins at (zero
	// uses DefaultStart). Fleet runs stagger tenant starts with
	// per-home offsets derived from the fleet seed, so thousands of
	// homes do not issue their day's commands in lockstep.
	Start time.Time

	Seed int64
}

// DefaultStart is the simulated epoch experiments begin at when
// Config.Start is zero — the Monday the paper's 7-day protocol
// starts on.
var DefaultStart = time.Date(2023, 3, 6, 0, 0, 0, 0, time.UTC)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Days == 0 {
		c.Days = 7
	}
	if c.Start.IsZero() {
		c.Start = DefaultStart
	}
	if c.LegitPerDay == 0 {
		c.LegitPerDay = 13
	}
	if c.AttackPerDay == 0 {
		c.AttackPerDay = 9
	}
	return c
}

// CommandRecord is one issued voice command and its outcome.
type CommandRecord struct {
	Day          int
	At           time.Time
	Malicious    bool
	Blocked      bool
	Recognized   bool
	OwnerLoc     int // location of the nearest owner when issued
	Command      string
	Verification time.Duration
	Perceived    time.Duration // Fig. 6 user-perceived delay

	// Degraded marks a verdict produced without evidence (the query
	// path was dead) and decided by the guard's DegradedPolicy.
	Degraded bool
}

// Outcome aggregates one experiment run.
type Outcome struct {
	Config     Config
	Thresholds map[string]float64
	Confusion  stats.Confusion
	Records    []CommandRecord

	TraceEvents        int // stairway motion events processed
	TraceMisclassified int // traces whose classification mismatched ground truth

	// Capture holds every packet fed to the guard when
	// Config.RecordCapture was set.
	Capture []pcap.Packet
}

// VerificationSeconds extracts the per-command verification times.
func (o *Outcome) VerificationSeconds() []float64 {
	out := make([]float64, 0, len(o.Records))
	for _, r := range o.Records {
		if r.Recognized {
			out = append(out, r.Verification.Seconds())
		}
	}
	return out
}

// owner is one legitimate user in the simulation.
type owner struct {
	spec    DeviceSpec
	scanner *ble.Scanner
	pos     floorplan.Position
	tracker *decision.FloorTracker
	src     *rng.Source
}

// run holds the mutable experiment state.
type run struct {
	cfg    Config
	clock  *simtime.Sim
	root   *rng.Source
	model  *radio.Model
	spot   floorplan.Spot
	adv    ble.Advertiser
	owners []*owner
	guard  *guard.Guard
	router *guard.Router // when set, packets reach the guard through it (RunMulti)
	echo   *trafficgen.Echo
	ghm    *trafficgen.GHM
	motion *sensor.Motion
	corp   corpus.Corpus

	cmdLocs      []int
	awayLocs     []int // away locations in dwellable rooms
	dwellLocs    []int
	bleedCeiling float64 // strongest off-floor survey reading + margin

	agenda []agendaEvent // the day's command slots, reused day to day (events.go)

	// cmdEvent is the first command event since the current issue
	// began (haveCmd), collected through the guard's OnEvent.
	cmdEvent guard.Event
	haveCmd  bool

	outcome *Outcome
}

// Run executes the experiment on the event-driven scheduler: each
// day's command slots are sorted by time and the simulated clock
// jumps straight from event to event (see events.go).
func Run(cfg Config) (*Outcome, error) {
	h, err := NewHome(cfg)
	if err != nil {
		return nil, err
	}
	return h.RunRemaining(), nil
}

// newRun builds a fully initialised experiment (owners calibrated,
// guard wired, sensors installed) without executing the day loop.
func newRun(cfg Config) (*run, error) {
	cfg = cfg.withDefaults()
	if cfg.Plan == nil {
		return nil, fmt.Errorf("scenario: config needs a plan")
	}
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("scenario: config needs at least one device")
	}
	spot, ok := cfg.Plan.Spot(cfg.Spot)
	if !ok {
		return nil, fmt.Errorf("scenario: plan %s has no spot %q", cfg.Plan.Name, cfg.Spot)
	}

	r := &run{
		cfg:   cfg,
		clock: simtime.NewSim(cfg.Start),
		root:  rng.New(cfg.Seed),
		spot:  spot,
		adv:   ble.NewAdvertiser(spot.Pos),
		outcome: &Outcome{
			Config:     cfg,
			Thresholds: make(map[string]float64, len(cfg.Devices)),
		},
	}
	params := radio.DefaultParams()
	if cfg.RadioParams != nil {
		params = *cfg.RadioParams
	}
	r.model = radio.NewModel(cfg.Plan, params, cfg.Seed)
	r.cmdLocs = cfg.Plan.CommandLocations(spot)
	r.dwellLocs = cfg.Plan.DwellLocations()
	dwell := make(map[int]bool, len(r.dwellLocs))
	for _, id := range r.dwellLocs {
		dwell[id] = true
	}
	for _, id := range cfg.Plan.AwayLocations(spot) {
		if dwell[id] {
			r.awayLocs = append(r.awayLocs, id)
		}
	}
	if len(r.cmdLocs) == 0 || len(r.awayLocs) == 0 {
		return nil, fmt.Errorf("scenario: spot %q has no command or away locations", cfg.Spot)
	}
	r.corp = corpus.Alexa()
	if cfg.Speaker == GHM {
		r.corp = corpus.Google()
	}

	if err := r.setupOwners(); err != nil {
		return nil, err
	}
	if err := r.setupGuard(); err != nil {
		return nil, err
	}
	r.setupMotion()
	return r, nil
}

// setupOwners creates owners, calibrates their thresholds, and — when
// the deployment needs it — trains floor trackers.
func (r *run) setupOwners() error {
	for i, spec := range r.cfg.Devices {
		o := &owner{
			spec:    spec,
			src:     r.root.SplitN("owner", i),
			scanner: ble.NewScanner(r.model, spec.Hardware, r.root.Split("scan-"+spec.ID)),
		}
		// Owners start near the speaker.
		o.pos = r.locPos(r.cmdLocs[0])

		threshold, err := r.calibrate(o)
		if err != nil {
			return err
		}
		r.outcome.Thresholds[spec.ID] = threshold
		r.owners = append(r.owners, o)
	}

	// Floor tracking is deployed only where the survey walk finds
	// cross-floor bleed-through: locations on other floors whose
	// measured RSSI exceeds the threshold (the paper's Fig. 8a
	// #55/#56/#59-#62 case). Deployments without bleed-through gain
	// nothing from tracking and would only inherit its residual
	// classification errors. The survey also yields the bleed
	// ceiling: the strongest off-floor reading, above which a device
	// must be on the speaker's floor.
	bleed := false
	if r.cfg.Plan.Floors > 1 && !r.cfg.DisableFloorTracking && r.cfg.Plan.Stairs != nil {
		bleed = r.surveyBleedThrough()
	}
	if !bleed {
		return nil
	}
	classifier, err := r.trainClassifier()
	if err != nil {
		return err
	}
	for _, o := range r.owners {
		o.tracker = decision.NewFloorTracker(classifier, r.spot.Pos.Floor, 0, r.cfg.Plan.Floors-1, r.spot.Pos.Floor)
	}
	return nil
}

// surveyBleedThrough measures every off-floor location with the first
// device, records the strongest reading as the bleed ceiling, and
// reports whether any location exceeded the device's threshold.
func (r *run) surveyBleedThrough() bool {
	if len(r.owners) == 0 {
		return false
	}
	o := r.owners[0]
	threshold := r.outcome.Thresholds[o.spec.ID]
	surveySrc := r.root.Split("bleed-survey")
	// All off-floor locations are measured in one batched pass
	// (value-identical to the per-location sweep it replaces).
	var positions []floorplan.Position
	for _, l := range r.cfg.Plan.Locations {
		if l.Pos.Floor == r.spot.Pos.Floor {
			continue
		}
		positions = append(positions, l.Pos)
	}
	values := make([]float64, len(positions))
	r.model.AverageAtBatch(r.spot.Pos, positions, o.spec.Hardware, surveySrc, values)
	exists := false
	ceiling := 0.0
	for i, v := range values {
		if v >= threshold {
			exists = true
		}
		if i == 0 || v > ceiling {
			ceiling = v
		}
	}
	// A safety margin absorbs measurement noise around the strongest
	// off-floor spot.
	r.bleedCeiling = ceiling + 0.5
	return exists
}

// calibrate runs the walk-the-room threshold app for one device.
func (r *run) calibrate(o *owner) (float64, error) {
	var route floorplan.Route
	if r.spot.LegitArea != nil {
		route = mobility.PerimeterRouteOf(r.spot.Name+"-box", r.spot.Pos.Floor, r.spot.LegitArea, 0.3)
	} else {
		room, ok := r.cfg.Plan.Room(r.spot.Room)
		if !ok {
			return 0, fmt.Errorf("scenario: spot room %q missing", r.spot.Room)
		}
		route = mobility.PerimeterRoute(room, 0.3)
	}
	walk, err := mobility.NewRoutePath(route, 0.8)
	if err != nil {
		return 0, err
	}
	return decision.CalibrateThreshold(o.scanner, r.adv, walk)
}

// trainClassifier collects the Fig. 10 training traces with the first
// device's hardware.
func (r *run) trainClassifier() (*decision.TraceClassifier, error) {
	sc := ble.NewScanner(r.model, r.cfg.Devices[0].Hardware, r.root.Split("train-scan"))
	var samples []decision.LabeledTrace

	addRoute := func(class decision.TraceClass, route floorplan.Route, n int) error {
		for i := 0; i < n; i++ {
			path, err := mobility.NewRoutePath(route, mobility.DefaultSpeed)
			if err != nil {
				return err
			}
			lt, err := decision.FeaturesOf(class, decision.RecordTrace(sc, r.adv, path, 0))
			if err != nil {
				return err
			}
			samples = append(samples, lt)
		}
		return nil
	}

	if err := addRoute(decision.TraceUp, r.cfg.Plan.Routes["up"], 15); err != nil {
		return nil, err
	}
	if err := addRoute(decision.TraceDown, r.cfg.Plan.Routes["down"], 15); err != nil {
		return nil, err
	}
	for _, name := range []string{"route2", "route3"} {
		if route, ok := r.cfg.Plan.Routes[name]; ok {
			if err := addRoute(decision.TraceOther, route, 10); err != nil {
				return nil, err
			}
		}
	}
	// Route 1: wander traces in every non-corridor room with
	// measurement locations (the paper wanders its five proper
	// rooms; hallways are walked through, not wandered).
	wanders := 0
	for _, room := range r.cfg.Plan.Rooms {
		if room.Corridor || len(r.cfg.Plan.LocationsInRoom(room.Name)) == 0 {
			continue
		}
		// Ten traces per room: the guard's app collects these
		// automatically, so training density is cheap.
		for i := 0; i < 10; i++ {
			path, err := mobility.NewWanderPath(room, mobility.DefaultSpeed, 10*time.Second, r.root.SplitN("train-wander-"+room.Name, i))
			if err != nil {
				return nil, err
			}
			lt, err := decision.FeaturesOf(decision.TraceOther, decision.RecordTrace(sc, r.adv, path, 0))
			if err != nil {
				return nil, err
			}
			samples = append(samples, lt)
			wanders++
		}
	}
	return decision.TrainClassifier(samples)
}

// setupGuard wires the guard for the configured speaker.
func (r *run) setupGuard() error {
	broker := push.NewBroker(r.clock, r.root.Split("push"))
	profile := faults.None().Name
	if r.cfg.Faults != nil {
		broker.SetFaults(faults.NewPlan(*r.cfg.Faults, r.clock, r.root.Split("faults")))
		profile = r.cfg.Faults.Name
	}
	// The run's label set: every stage below shares it, so one labeled
	// snapshot slices the whole pipeline by (home, speaker, profile) —
	// multi-speaker homes separate on the speaker dimension.
	speakerLabel := "echo"
	if r.cfg.Speaker == GHM {
		speakerLabel = "ghm"
	}
	labels := metrics.Labels{Home: r.cfg.Home, Speaker: speakerLabel, Profile: profile}
	broker.SetLabels(labels)
	devices := make([]decision.DeviceConfig, 0, len(r.owners))
	for _, o := range r.owners {
		o := o
		if err := broker.Register(&push.Device{
			ID:       o.spec.ID,
			Scanner:  o.scanner,
			Position: func() floorplan.Position { return o.pos },
		}); err != nil {
			return err
		}
		cfg := decision.DeviceConfig{
			ID:        o.spec.ID,
			Threshold: r.outcome.Thresholds[o.spec.ID],
			Tracker:   o.tracker,
		}
		if o.tracker != nil {
			cfg.FloorCeiling = r.bleedCeiling
		}
		devices = append(devices, cfg)
	}
	method := &decision.RSSIMethod{
		Clock:   r.clock,
		Broker:  broker,
		Adv:     r.adv,
		Devices: devices,
		Labels:  labels,
	}

	switch r.cfg.Speaker {
	case GHM:
		r.ghm = trafficgen.NewGHM(r.root.Split("traffic"))
		r.guard = guard.New(r.clock, recognize.NewGHM(trafficgen.GHMAddr), method, "ghm")
		r.guard.DispatchDelay = GHMDispatchDelay
	default:
		r.echo = trafficgen.NewEcho(r.root.Split("traffic"))
		r.echo.AnomalyRate = 0 // recognition robustness is Table I's experiment
		r.guard = guard.New(r.clock, recognize.NewEcho(trafficgen.EchoAddr), method, "echo")
		boot, err := r.echo.Boot(r.clock.Now())
		if err != nil {
			return err
		}
		r.feed(boot)
	}
	r.guard.SetLabels(labels)
	r.guard.Degraded = r.cfg.Degraded
	r.guard.OnEvent(r.onGuardEvent)
	return nil
}

// setupMotion installs the stairway motion sensor on multi-floor
// plans.
func (r *run) setupMotion() {
	if r.cfg.Plan.Stairs == nil {
		return
	}
	r.motion = sensor.NewMotion(r.cfg.Plan.Stairs.Bottom(), 1.5)
}

// feed advances the clock and delivers packets to the guard.
func (r *run) feed(packets []pcap.Packet) {
	for i := range packets {
		r.feedPacket(&packets[i])
	}
}

// feedPacket advances the clock to one packet and delivers it to the
// guard. p is read only during the call.
func (r *run) feedPacket(p *pcap.Packet) {
	if r.cfg.RecordCapture {
		r.outcome.Capture = append(r.outcome.Capture, *p)
	}
	r.clock.AdvanceTo(p.Time)
	if r.router != nil {
		r.router.Feed(p)
	} else {
		r.guard.Feed(p)
	}
}

// locPos returns the position of a location ID.
func (r *run) locPos(id int) floorplan.Position {
	return r.cfg.Plan.MustLocation(id).Pos
}

// legitCommand moves one owner to the speaker and issues a command.
func (r *run) legitCommand(day int, src *rng.Source) {
	speaker := r.owners[src.IntN(len(r.owners))]
	loc := rng.Pick(src, r.cmdLocs)
	r.moveOwner(speaker, loc, src)
	// Other owners roam any dwellable location.
	for _, o := range r.owners {
		if o != speaker {
			r.moveOwner(o, rng.Pick(src, r.dwellLocs), src)
		}
	}
	r.issue(day, false, loc, src)
}

// attackCommand moves every owner away and lets the attacker play a
// command.
func (r *run) attackCommand(day int, src *rng.Source) {
	for _, o := range r.owners {
		r.moveOwner(o, rng.Pick(src, r.awayLocs), src)
	}
	nearest := r.nearestOwnerLoc()
	r.issue(day, true, nearest, src)
}

// nearestOwnerLoc returns the location id closest to the speaker
// among owners (for the record only).
func (r *run) nearestOwnerLoc() int {
	best := 0
	bestDist := -1.0
	for _, o := range r.owners {
		d := o.pos.At.Dist(r.spot.Pos.At)
		if bestDist < 0 || d < bestDist {
			bestDist = d
			best = r.nearestLocTo(o.pos)
		}
	}
	return best
}

func (r *run) nearestLocTo(pos floorplan.Position) int {
	best, bestDist := 0, -1.0
	for _, l := range r.cfg.Plan.Locations {
		if l.Pos.Floor != pos.Floor {
			continue
		}
		d := l.Pos.At.Dist(pos.At)
		if bestDist < 0 || d < bestDist {
			bestDist = d
			best = l.ID
		}
	}
	return best
}

// moveOwner relocates an owner to a location, walking the stairs (and
// triggering the motion sensor) when the floor changes.
func (r *run) moveOwner(o *owner, locID int, src *rng.Source) {
	dest := r.locPos(locID)
	if dest.Floor != o.pos.Floor && r.motion != nil {
		routeName := "up"
		var wantClass decision.TraceClass = decision.TraceUp
		if dest.Floor < o.pos.Floor {
			routeName = "down"
			wantClass = decision.TraceDown
		}
		r.stairEvent(o, r.cfg.Plan.Routes[routeName], wantClass, src)
	}
	o.pos = dest
}

// stairEvent simulates a motion-sensor activation: every owner's
// phone records a trace — the climbing owner walks the stair route,
// the others wander in place — and each tracker updates from its own
// trace.
func (r *run) stairEvent(climber *owner, route floorplan.Route, wantClass decision.TraceClass, src *rng.Source) {
	if r.motion == nil {
		return
	}
	r.outcome.TraceEvents++
	for _, o := range r.owners {
		if o.tracker == nil {
			continue
		}
		var (
			path *mobility.Path
			err  error
			want decision.TraceClass
		)
		if o == climber {
			path, err = mobility.NewRoutePath(route, mobility.DefaultSpeed)
			want = wantClass
		} else {
			room, ok := r.cfg.Plan.RoomAt(o.pos)
			if !ok {
				continue
			}
			want = decision.TraceOther
			if room.Corridor {
				// Someone pausing in a hallway stands still; their
				// trace is flat.
				still := floorplan.Route{Name: "still", Waypoints: []floorplan.Position{o.pos, o.pos}}
				path, err = mobility.NewRoutePath(still, mobility.DefaultSpeed)
			} else {
				path, err = mobility.NewWanderPath(room, mobility.DefaultSpeed, 9*time.Second, o.src.SplitN("wander", r.outcome.TraceEvents))
			}
		}
		if err != nil {
			continue
		}
		got, err := o.tracker.OnMotionTrace(decision.RecordTrace(o.scanner, r.adv, path, 0))
		if err != nil {
			continue
		}
		if got != want {
			// A misclassified trace leaves this tracker out of sync
			// with reality until a later stair walk corrects it —
			// the paper's residual error mode (extra false positives
			// for non-climbers, rare false negatives for climbers).
			r.outcome.TraceMisclassified++
		}
	}
}

// issue plays one voice command through the guard and records the
// outcome.
func (r *run) issue(day int, malicious bool, ownerLoc int, src *rng.Source) {
	start := r.clock.Now()
	r.haveCmd = false

	var inv trafficgen.Invocation
	if r.cfg.Speaker == GHM {
		inv = r.ghm.Invocation(start)
	} else {
		inv = r.echo.Invocation(start, responseSpikes(src))
	}
	r.feed(inv.All())
	r.clock.Advance(12 * time.Second) // let queries and timers settle

	command := rng.Pick(src, r.corp.Commands)
	rec := CommandRecord{
		Day:       day,
		At:        start,
		Malicious: malicious,
		OwnerLoc:  ownerLoc,
		Command:   command,
	}
	if e := r.cmdEvent; r.haveCmd {
		rec.Recognized = true
		rec.Blocked = !e.Released
		rec.Degraded = e.Degraded
		rec.Verification = e.VerificationTime()
		rec.Perceived = corpus.PerceivedDelay(command, rec.Verification)
	}
	r.outcome.Records = append(r.outcome.Records, rec)
	// Positive class = malicious (paper convention); predicted
	// positive = blocked.
	r.outcome.Confusion.Add(malicious, rec.Blocked)
}

// onGuardEvent keeps the first command event of the command being
// issued.
func (r *run) onGuardEvent(e guard.Event) {
	if e.Kind == guard.EventCommand && !r.haveCmd {
		r.cmdEvent, r.haveCmd = e, true
	}
}

// responseSpikes draws the per-invocation response spike count with
// the paper's Table I ratio (149 response spikes per 134
// invocations).
func responseSpikes(src *rng.Source) int {
	switch {
	case src.Bool(0.08):
		return 2
	case src.Bool(0.02):
		return 3
	default:
		return 1
	}
}
