package voiceguard

import (
	"bytes"
	"testing"
	"time"

	"voiceguard/internal/rng"
	"voiceguard/internal/trafficgen"
)

// FuzzSplitOneRecord feeds the TLS record splitter arbitrary speaker
// bytes — the stream an attacker on the speaker side fully controls.
// Splitting until no whole record is left must partition the input:
// the records and the remainder concatenate back to it, and every
// record is its 5-byte header plus the length that header declares.
func FuzzSplitOneRecord(f *testing.F) {
	echo := trafficgen.NewEcho(rng.New(5).Split("traffic"))
	inv := echo.Invocation(time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC), 2)
	var stream []byte
	for _, p := range inv.All() {
		stream = append(stream, p.Payload...)
		f.Add(p.Payload)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3]) // a trailing partial record
	f.Add([]byte{23, 3, 3, 0xff, 0xff})
	f.Add([]byte{})               // no bytes at all
	f.Add([]byte{23, 3, 3, 0, 0}) // a header declaring an empty body
	f.Add([]byte{23, 3, 3, 0, 1}) // a header whose one-byte body is missing

	f.Fuzz(func(t *testing.T, in []byte) {
		var joined []byte
		buf := in
		for {
			record, rest, ok := splitOneRecord(buf)
			if !ok {
				if !bytes.Equal(rest, buf) {
					t.Fatalf("no record split, but the remainder changed: %x -> %x", buf, rest)
				}
				break
			}
			if len(record) < 5 {
				t.Fatalf("record shorter than its header: %x", record)
			}
			if want := 5 + (int(record[3])<<8 | int(record[4])); len(record) != want {
				t.Fatalf("record is %d bytes, its header declares %d", len(record), want)
			}
			if cap(record) != len(record) {
				t.Fatalf("record capacity %d exceeds its length %d: appends would overwrite the remainder", cap(record), len(record))
			}
			joined = append(joined, record...)
			buf = rest
		}
		joined = append(joined, buf...)
		if !bytes.Equal(joined, in) {
			t.Fatalf("records + remainder = %x, want the input %x", joined, in)
		}
	})
}
