package pcap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Capture file format: a magic header followed by length-prefixed
// packet records. The format is deliberately minimal — enough to dump
// a guard's view of the network for offline analysis and to replay it
// in tests — not a libpcap replacement.
//
//	header: "VGC1"
//	packet: unixNano int64 | proto uint8 |
//	        srcIP str | srcPort uint16 | dstIP str | dstPort uint16 |
//	        len uint32 | payloadLen uint32 | payload bytes
//	str:    uint8 length-prefixed UTF-8
//
// Addresses are written in dotted-decimal form, and the reader accepts
// only that form (see ParseIPv4), so each packet has exactly one
// encoding: a capture the reader accepts re-encodes to the same bytes.
var captureMagic = [4]byte{'V', 'G', 'C', '1'}

// WriteCapture serialises packets to w.
func WriteCapture(w io.Writer, packets []Packet) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(captureMagic[:]); err != nil {
		return fmt.Errorf("pcap: write magic: %w", err)
	}
	for i := range packets {
		if err := writePacket(bw, &packets[i]); err != nil {
			return fmt.Errorf("pcap: write packet %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadCapture parses a capture written by WriteCapture.
func ReadCapture(r io.Reader) ([]Packet, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("pcap: read magic: %w", err)
	}
	if magic != captureMagic {
		return nil, fmt.Errorf("pcap: bad capture magic %q", magic[:])
	}
	var packets []Packet
	for {
		p, err := readPacket(br)
		if err == io.EOF {
			return packets, nil
		}
		if err != nil {
			return nil, fmt.Errorf("pcap: packet %d: %w", len(packets), err)
		}
		packets = append(packets, p)
	}
}

func writePacket(w *bufio.Writer, p *Packet) error {
	if err := binary.Write(w, binary.BigEndian, p.Time.UnixNano()); err != nil {
		return err
	}
	if err := w.WriteByte(byte(p.Proto)); err != nil {
		return err
	}
	if err := writeIPv4(w, p.SrcIP); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, p.SrcPort); err != nil {
		return err
	}
	if err := writeIPv4(w, p.DstIP); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, p.DstPort); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, uint32(p.Len)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, uint32(len(p.Payload))); err != nil {
		return err
	}
	_, err := w.Write(p.Payload)
	return err
}

func readPacket(r *bufio.Reader) (Packet, error) {
	var p Packet
	var unixNano int64
	if err := binary.Read(r, binary.BigEndian, &unixNano); err != nil {
		return p, err // io.EOF at a record boundary is the normal end
	}
	p.Time = time.Unix(0, unixNano).UTC()

	proto, err := r.ReadByte()
	if err != nil {
		return p, eofIsTruncated(err)
	}
	p.Proto = Protocol(proto)

	if p.SrcIP, err = readIPv4(r); err != nil {
		return p, err
	}
	if err := binary.Read(r, binary.BigEndian, &p.SrcPort); err != nil {
		return p, eofIsTruncated(err)
	}
	if p.DstIP, err = readIPv4(r); err != nil {
		return p, err
	}
	if err := binary.Read(r, binary.BigEndian, &p.DstPort); err != nil {
		return p, eofIsTruncated(err)
	}

	var length, payloadLen uint32
	if err := binary.Read(r, binary.BigEndian, &length); err != nil {
		return p, eofIsTruncated(err)
	}
	p.Len = int(length)
	if err := binary.Read(r, binary.BigEndian, &payloadLen); err != nil {
		return p, eofIsTruncated(err)
	}
	const maxPayload = 1 << 20
	if payloadLen > maxPayload {
		return p, fmt.Errorf("payload %d exceeds limit", payloadLen)
	}
	if payloadLen > 0 {
		p.Payload = make([]byte, payloadLen)
		if _, err := io.ReadFull(r, p.Payload); err != nil {
			return p, eofIsTruncated(err)
		}
	}
	return p, nil
}

// writeIPv4 writes an address as a str in dotted-decimal form.
func writeIPv4(w *bufio.Writer, a IPv4) error {
	s := a.String()
	if err := w.WriteByte(byte(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

// readIPv4 reads one address string and parses it.
func readIPv4(r *bufio.Reader) (IPv4, error) {
	n, err := r.ReadByte()
	if err != nil {
		return IPv4{}, eofIsTruncated(err)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return IPv4{}, eofIsTruncated(err)
	}
	return ParseIPv4(string(buf))
}

// eofIsTruncated converts mid-record EOFs into explicit truncation
// errors so only record-boundary EOFs read as a clean end of file.
func eofIsTruncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
