package pcap

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncodeParseRecordRoundTrip(t *testing.T) {
	in := Record{Type: RecordApplicationData, Version: TLS12Version, Payload: []byte("hello")}
	out, err := ParseRecords(EncodeRecord(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("parsed %d records, want 1", len(out))
	}
	got := out[0]
	if got.Type != in.Type || got.Version != in.Version || !bytes.Equal(got.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestParseConcatenatedRecords(t *testing.T) {
	b := append(EncodeRecord(Record{Type: RecordHandshake, Version: TLS12Version, Payload: []byte{1, 2}}),
		EncodeRecord(Record{Type: RecordApplicationData, Version: TLS12Version, Payload: []byte{3}})...)
	records, err := ParseRecords(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("parsed %d records, want 2", len(records))
	}
	if records[0].Type != RecordHandshake || records[1].Type != RecordApplicationData {
		t.Fatalf("types = %v, %v", records[0].Type, records[1].Type)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
	}{
		{name: "short header", b: []byte{23, 3}},
		{name: "unknown type", b: []byte{99, 3, 3, 0, 0}},
		{name: "truncated payload", b: []byte{23, 3, 3, 0, 10, 1, 2}},
		{name: "oversized length", b: []byte{23, 3, 3, 0xFF, 0xFF}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseRecords(tt.b); err == nil {
				t.Fatal("accepted invalid record bytes")
			}
		})
	}
}

func TestAppDataWireLength(t *testing.T) {
	for _, wireLen := range []int{5, 33, 63, 131, 138, 653, 277} {
		b, err := AppData(wireLen)
		if err != nil {
			t.Fatalf("AppData(%d): %v", wireLen, err)
		}
		if len(b) != wireLen {
			t.Fatalf("AppData(%d) produced %d bytes", wireLen, len(b))
		}
		records, err := ParseRecords(b)
		if err != nil {
			t.Fatal(err)
		}
		if records[0].Type != RecordApplicationData {
			t.Fatalf("AppData produced %v", records[0].Type)
		}
	}
}

func TestAppDataRejectsTooSmall(t *testing.T) {
	if _, err := AppData(4); err == nil {
		t.Fatal("AppData(4) accepted")
	}
}

func TestAppDataRoundTripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		wireLen := int(raw%2000) + 5
		b, err := AppData(wireLen)
		if err != nil {
			return false
		}
		records, err := ParseRecords(b)
		return err == nil && len(records) == 1 &&
			records[0].Type == RecordApplicationData &&
			len(b) == wireLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsAppData(t *testing.T) {
	appPayload, err := AppData(63)
	if err != nil {
		t.Fatal(err)
	}
	hsPayload := EncodeRecord(Record{Type: RecordHandshake, Version: TLS12Version, Payload: []byte{0}})
	tests := []struct {
		name string
		p    Packet
		want bool
	}{
		{name: "app data", p: Packet{Payload: appPayload, Len: 63}, want: true},
		{name: "handshake", p: Packet{Payload: hsPayload, Len: len(hsPayload)}, want: false},
		{name: "empty payload", p: Packet{Len: 0}, want: false},
		{name: "garbage", p: Packet{Payload: []byte{1, 2, 3, 4, 5, 6}}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsAppData(&tt.p); got != tt.want {
				t.Fatalf("IsAppData = %v, want %v", got, tt.want)
			}
		})
	}
}
