package recognize

import (
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/trace"
)

// ReplayStats summarises an offline re-recognition pass over a
// capture.
type ReplayStats struct {
	Packets  int
	Holds    int // spikes that began being held
	Commands int // spikes classified as voice commands
	Releases int // spikes released without a decision query
	Span     time.Duration
}

// Replay runs the streaming recognizer over a recorded, time-ordered
// capture, simulating the guard's idle timer from the packet
// timestamps. It is the offline-analysis counterpart of the live
// pipeline (cmd/vgreplay wraps it). Each spike gets its own command
// ID, so a -trace-out export of a replay carries one classify span
// per spike. As in the guard, only packets the recognizer adds to its
// spike push the idle deadline out; other hosts' chatter does not.
func Replay(rec *Recognizer, packets []pcap.Packet) ReplayStats {
	var stats ReplayStats
	if len(packets) == 0 {
		return stats
	}
	stats.Packets = len(packets)
	stats.Span = packets[len(packets)-1].Time.Sub(packets[0].Time)

	tr := trace.Or(rec.Tracer)
	var (
		cmd        trace.CommandID
		spikeStart time.Time
		lastVoice  time.Time
	)
	classify := func(action string, end time.Time) {
		tr.Record(trace.Span{
			Command: cmd,
			Stage:   trace.StageRecognize,
			Name:    "classify",
			Start:   spikeStart,
			End:     end,
			Attrs:   []trace.Attr{trace.String("action", action)},
		})
	}
	for i := range packets {
		p := &packets[i]
		// Close spikes that ended before this packet, as the guard's
		// idle timer would have.
		if !lastVoice.IsZero() && p.Time.Sub(lastVoice) >= rec.IdleGap {
			if rec.EndSpike() == ActionRelease {
				stats.Releases++
				classify("release", lastVoice)
			}
		}
		switch rec.Feed(p) {
		case ActionHold:
			cmd = tr.NextID()
			rec.BindCommand(cmd)
			spikeStart = p.Time
			stats.Holds++
			lastVoice = p.Time
		case ActionCommand:
			if rec.Kind == KindGHM || cmd == 0 {
				// GHM spikes are commands from their first packet; the
				// spike start and the classification coincide.
				cmd = tr.NextID()
				rec.BindCommand(cmd)
				spikeStart = p.Time
			}
			stats.Commands++
			classify("command", p.Time)
			lastVoice = p.Time
		case ActionRelease:
			stats.Releases++
			classify("release", p.Time)
			lastVoice = p.Time
		case ActionExtend:
			lastVoice = p.Time
		}
	}
	if rec.EndSpike() == ActionRelease {
		stats.Releases++
		classify("release", lastVoice)
	}
	return stats
}
