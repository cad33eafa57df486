package pcap

import (
	"encoding/binary"
	"fmt"
)

// RecordType is the TLS record content type, readable in the clear
// even on encrypted connections — the property the paper exploits to
// restrict signatures to Application Data packets.
type RecordType byte

// TLS record content types.
const (
	RecordChangeCipherSpec RecordType = 20
	RecordAlert            RecordType = 21
	RecordHandshake        RecordType = 22
	RecordApplicationData  RecordType = 23
)

// String names the record type.
func (t RecordType) String() string {
	switch t {
	case RecordChangeCipherSpec:
		return "ChangeCipherSpec"
	case RecordAlert:
		return "Alert"
	case RecordHandshake:
		return "Handshake"
	case RecordApplicationData:
		return "ApplicationData"
	default:
		return fmt.Sprintf("RecordType(%d)", byte(t))
	}
}

// TLS12Version is the wire version the emulated speakers use.
const TLS12Version uint16 = 0x0303

// recordHeaderLen is the length of a TLS record header.
const recordHeaderLen = 5

// maxRecordPayload is the TLS maximum plaintext record size.
const maxRecordPayload = 1 << 14

// Record is one TLS record.
type Record struct {
	Type    RecordType
	Version uint16
	Payload []byte
}

// EncodeRecord serialises the record with its 5-byte header.
func EncodeRecord(r Record) []byte {
	out := make([]byte, recordHeaderLen+len(r.Payload))
	out[0] = byte(r.Type)
	binary.BigEndian.PutUint16(out[1:3], r.Version)
	binary.BigEndian.PutUint16(out[3:5], uint16(len(r.Payload)))
	copy(out[recordHeaderLen:], r.Payload)
	return out
}

// AppData builds an Application Data record whose encoded length
// (header + payload) equals wireLen — the generators specify the
// paper's signature lengths as on-the-wire packet lengths.
func AppData(wireLen int) ([]byte, error) {
	if wireLen < recordHeaderLen {
		return nil, fmt.Errorf("pcap: wire length %d below record header size", wireLen)
	}
	return EncodeRecord(Record{
		Type:    RecordApplicationData,
		Version: TLS12Version,
		Payload: make([]byte, wireLen-recordHeaderLen),
	}), nil
}

// ParseRecords parses a concatenation of TLS records. It fails on a
// truncated or oversized record.
func ParseRecords(b []byte) ([]Record, error) {
	var records []Record
	for len(b) > 0 {
		if len(b) < recordHeaderLen {
			return nil, fmt.Errorf("pcap: truncated record header (%d bytes)", len(b))
		}
		typ := RecordType(b[0])
		switch typ {
		case RecordChangeCipherSpec, RecordAlert, RecordHandshake, RecordApplicationData:
		default:
			return nil, fmt.Errorf("pcap: unknown record type %d", b[0])
		}
		version := binary.BigEndian.Uint16(b[1:3])
		n := int(binary.BigEndian.Uint16(b[3:5]))
		if n > maxRecordPayload {
			return nil, fmt.Errorf("pcap: record payload %d exceeds TLS maximum", n)
		}
		if len(b) < recordHeaderLen+n {
			return nil, fmt.Errorf("pcap: truncated record payload (want %d, have %d)", n, len(b)-recordHeaderLen)
		}
		records = append(records, Record{
			Type:    typ,
			Version: version,
			Payload: append([]byte(nil), b[recordHeaderLen:recordHeaderLen+n]...),
		})
		b = b[recordHeaderLen+n:]
	}
	return records, nil
}

// IsAppData reports whether the packet's payload parses as TLS records
// whose first record is Application Data. Packets without payload are
// classified by convention as non-application (pure ACKs, keep-alive
// probes).
//
// The check walks the record headers in place, accepting and rejecting
// exactly the payloads ParseRecords accepts and rejects, without
// copying any record body — this runs once per captured packet on the
// recognizer's hot path.
func IsAppData(p *Packet) bool {
	b := p.Payload
	if len(b) < recordHeaderLen || RecordType(b[0]) != RecordApplicationData {
		return false
	}
	for len(b) > 0 {
		if len(b) < recordHeaderLen {
			return false // truncated record header
		}
		switch RecordType(b[0]) {
		case RecordChangeCipherSpec, RecordAlert, RecordHandshake, RecordApplicationData:
		default:
			return false // unknown record type
		}
		n := int(binary.BigEndian.Uint16(b[3:5]))
		if n > maxRecordPayload {
			return false
		}
		if len(b) < recordHeaderLen+n {
			return false // truncated record payload
		}
		b = b[recordHeaderLen+n:]
	}
	return true
}
