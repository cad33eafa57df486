package guard

import (
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/recognize"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trafficgen"
)

// TestChatterDoesNotStretchHeldSpike holds a one-packet Echo spike and
// feeds one packet the recognizer does not add to it 0.9 s later:
// another host's TLS record, an Echo heartbeat, or a DNS reply to
// another host. The spike must be released one idle gap after its only
// voice packet, with one held packet.
func TestChatterDoesNotStretchHeldSpike(t *testing.T) {
	avs := pcap.IPv4{52, 94, 233, 1}
	laptop := pcap.IPv4{192, 168, 1, 50}
	appData := func(n int) []byte {
		b, err := pcap.AppData(n)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dns, err := pcap.NewDNSQuestion("cdn1.example.com")
	if err != nil {
		t.Fatal(err)
	}
	reply := dns.Response(7, [4]byte{93, 184, 1, 1})
	voiceAt := epoch.Add(time.Minute)
	chatterAt := voiceAt.Add(900 * time.Millisecond)
	cases := map[string]pcap.Packet{
		"other host": {
			Time: chatterAt, SrcIP: laptop, SrcPort: 52001, DstIP: pcap.IPv4{93, 184, 1, 1}, DstPort: trafficgen.TLSPort,
			Proto: pcap.TCP, Len: 138, Payload: appData(138),
		},
		"heartbeat": {
			Time: chatterAt, SrcIP: trafficgen.EchoAddr, SrcPort: 40001, DstIP: avs, DstPort: trafficgen.TLSPort,
			Proto: pcap.TCP, Len: trafficgen.HeartbeatLen, Payload: appData(trafficgen.HeartbeatLen),
		},
		"dns to other host": {
			Time: chatterAt, SrcIP: trafficgen.RouterAddr, SrcPort: pcap.DNSPort, DstIP: laptop, DstPort: 52001,
			Proto: pcap.UDP, Len: len(reply), Payload: reply,
		},
	}
	for name, chatter := range cases {
		t.Run(name, func(t *testing.T) {
			clock := simtime.NewSim(epoch)
			rec := recognize.NewEcho(trafficgen.EchoAddr)
			rec.Tracker.ForceAddress(avs)
			g := New(clock, rec, pathDeadMethod{}, "echo")
			var events []Event
			var releasedAt time.Time
			g.OnEvent(func(e Event) {
				events = append(events, e)
				releasedAt = clock.Now()
			})

			voice := pcap.Packet{
				Time: voiceAt, SrcIP: trafficgen.EchoAddr, SrcPort: 40001, DstIP: avs, DstPort: trafficgen.TLSPort,
				Proto: pcap.TCP, Len: 90, Payload: appData(90),
			}
			for _, p := range []*pcap.Packet{&voice, &chatter} {
				clock.AdvanceTo(p.Time)
				g.Feed(p)
			}
			clock.Advance(10 * time.Second)

			if len(events) != 1 || events[0].Kind != EventNonCommand {
				t.Fatalf("events = %+v, want one non-command release", events)
			}
			if want := voiceAt.Add(rec.IdleGap); !releasedAt.Equal(want) {
				t.Errorf("released %v after the voice packet, want %v", releasedAt.Sub(voiceAt), rec.IdleGap)
			}
			if got := events[0].HeldPackets; got != 1 {
				t.Errorf("held packets = %d, want 1", got)
			}
		})
	}
}
