// Package emul provides wire-plane endpoint emulators for the
// Fig. 4 experiments: a cloud voice server and a smart-speaker client
// that exchange sequence-numbered TLS records over real sockets
// (normally through the proxy package's transparent proxy).
//
// Commercial speaker-cloud sessions are mutually authenticated TLS;
// what matters for VoiceGuard is that (a) the server only acts when
// the command bytes actually arrive, and (b) a gap in the record
// sequence — held packets that were dropped — makes the server abort
// the session. The emulated protocol reproduces exactly those two
// properties: every record carries an explicit sequence number, and
// the server answers command records, echoes heartbeats, and sends a
// TLS Alert and closes on any sequence gap.
package emul

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"voiceguard/internal/metrics"
	"voiceguard/internal/pcap"
)

// Emulator metrics: server-side session volume, heartbeat traffic,
// completed commands, and TLS-session closes forced by sequence gaps
// (Fig. 4 case III).
const (
	metricEmulSessions   = "emul_sessions_total"
	metricEmulHeartbeats = "emul_heartbeats_total"
	metricEmulCommands   = "emul_commands_completed_total"
	metricEmulAborts     = "emul_session_aborts_total"
)

var (
	mEmulSessions   = metrics.NewCounter(metricEmulSessions)
	mEmulHeartbeats = metrics.NewCounter(metricEmulHeartbeats)
	mEmulCommands   = metrics.NewCounter(metricEmulCommands)
	mEmulAborts     = metrics.NewCounter(metricEmulAborts)
)

// Message types carried in record payloads.
const (
	MsgHeartbeat byte = 'H' // keep-alive, echoed with MsgAck
	MsgCommand   byte = 'C' // voice-command audio chunk
	MsgEnd       byte = 'E' // end of command; server replies MsgResponse
	MsgAck       byte = 'A' // server heartbeat acknowledgement
	MsgResponse  byte = 'R' // server voice response
)

// headerLen is the payload prefix: 4-byte sequence number + 1 type
// byte.
const headerLen = 5

// TLS record framing: the 5-byte record header (type, version,
// payload length) and the largest payload a record may carry.
const (
	recordHeaderLen  = 5
	maxRecordPayload = 1 << 14
)

// ErrSessionClosed is returned when the peer terminated the session.
var ErrSessionClosed = errors.New("emul: session closed by peer")

var (
	errShortFrame   = errors.New("emul: frame too short")
	errRecordType   = errors.New("emul: unknown TLS record type")
	errRecordLength = errors.New("emul: record payload exceeds TLS maximum")
	errClosed       = errors.New("emul: speaker client closed")
)

// Frame is one protocol message.
type Frame struct {
	Seq  uint32
	Type byte
	Body []byte
}

// appendFrame appends the record payload for a frame to dst.
func appendFrame(dst []byte, f Frame) []byte {
	dst = binary.BigEndian.AppendUint32(dst, f.Seq)
	dst = append(dst, f.Type)
	return append(dst, f.Body...)
}

// appendRecordHeader appends the header of a TLS record of the given
// type whose payload is n bytes long.
func appendRecordHeader(dst []byte, typ pcap.RecordType, n int) []byte {
	dst = append(dst, byte(typ))
	dst = binary.BigEndian.AppendUint16(dst, pcap.TLS12Version)
	return binary.BigEndian.AppendUint16(dst, uint16(n))
}

// appendFrameRecord appends one application-data record carrying f.
func appendFrameRecord(dst []byte, f Frame) []byte {
	return appendFrame(appendRecordHeader(dst, pcap.RecordApplicationData, headerLen+len(f.Body)), f)
}

// decodeFrame parses a record payload. The frame's Body aliases
// payload.
func decodeFrame(payload []byte) (Frame, error) {
	if len(payload) < headerLen {
		return Frame{}, errShortFrame
	}
	return Frame{
		Seq:  binary.BigEndian.Uint32(payload[0:4]),
		Type: payload[4],
		Body: payload[headerLen:],
	}, nil
}

// bufSize is the size of each of a session's buffers: room for every
// record the emulated speakers send, and for a burst of them on read.
const bufSize = 4 << 10

// buffers are one session's read and write buffers. Sessions take
// them from bufPool and give them back when they end, so the churn of
// drop-and-reconnect sessions allocates none.
type buffers struct {
	read  [bufSize]byte
	write [bufSize]byte
}

var bufPool = sync.Pool{New: func() any { return new(buffers) }}

// recordReader reads TLS records off a stream through a buffer. A read
// that fails mid-record — at a deadline, say — keeps the bytes read so
// far, so the next call resumes the record where the last one stopped.
type recordReader struct {
	buf  []byte
	r, w int // buf[r:w] is read but not yet returned
}

// next returns the stream's next record: its type and its payload,
// which is valid until the next call. A record larger than the buffer
// gets a buffer of its own.
func (rr *recordReader) next(conn net.Conn) (pcap.RecordType, []byte, error) {
	for {
		if avail := rr.buf[rr.r:rr.w]; len(avail) >= recordHeaderLen {
			typ := pcap.RecordType(avail[0])
			switch typ {
			case pcap.RecordChangeCipherSpec, pcap.RecordAlert, pcap.RecordHandshake, pcap.RecordApplicationData:
			default:
				return 0, nil, errRecordType
			}
			size := int(binary.BigEndian.Uint16(avail[3:5]))
			if size > maxRecordPayload {
				return 0, nil, errRecordLength
			}
			n := recordHeaderLen + size
			if len(avail) >= n {
				rr.r += n
				return typ, avail[recordHeaderLen:n:n], nil
			}
			if n > len(rr.buf) {
				rr.buf = append(make([]byte, 0, n), avail...)[:n]
				rr.r, rr.w = 0, len(avail)
			}
		}
		if rr.r == rr.w {
			rr.r, rr.w = 0, 0
		} else if rr.w == len(rr.buf) {
			rr.w = copy(rr.buf, rr.buf[rr.r:rr.w])
			rr.r = 0
		}
		m, err := conn.Read(rr.buf[rr.w:])
		rr.w += m
		if err != nil && m == 0 {
			return 0, nil, err
		}
	}
}

// CloudServer emulates the voice-service backend.
type CloudServer struct {
	lis net.Listener

	mu       sync.Mutex
	closed   bool
	aborts   int // sessions closed due to a sequence gap
	commands int // completed voice commands

	wg sync.WaitGroup
}

// NewCloudServer starts a cloud server on addr ("127.0.0.1:0" for an
// ephemeral port).
func NewCloudServer(addr string) (*CloudServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("emul: listen: %w", err)
	}
	s := &CloudServer{lis: lis}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *CloudServer) Addr() string { return s.lis.Addr().String() }

// Close shuts the server down and waits for its goroutines.
func (s *CloudServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	err := s.lis.Close()
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// SequenceAborts returns how many sessions the server terminated due
// to a record-sequence gap (the fate of dropped commands).
func (s *CloudServer) SequenceAborts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aborts
}

// CompletedCommands returns how many voice commands reached the
// server in full.
func (s *CloudServer) CompletedCommands() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commands
}

func (s *CloudServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// The server's fixed payloads: the alert that ends a session with a
// sequence gap (fatal, bad_record_mac) and a command's response body.
var (
	alertBadRecordMAC = []byte{2, 20}
	responseBody      = []byte("ok")
)

// serve runs one session: validate sequence continuity, echo
// heartbeats, answer completed commands. Records are parsed in the
// session's read buffer and replies built in its write buffer; a
// record's body is never copied.
func (s *CloudServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	mEmulSessions.Inc()
	bufs := bufPool.Get().(*buffers)
	defer bufPool.Put(bufs)
	rd := recordReader{buf: bufs.read[:]}
	var (
		expect    uint32
		serverSeq uint32
	)
	for {
		typ, payload, err := rd.next(conn)
		if err != nil {
			return
		}
		if typ != pcap.RecordApplicationData {
			continue // ignore handshake records
		}
		frame, err := decodeFrame(payload)
		if err != nil {
			return
		}
		if frame.Seq != expect {
			// Fig. 4 case III: unmatched TLS record sequence number —
			// alert and terminate.
			alert := appendRecordHeader(bufs.write[:0], pcap.RecordAlert, len(alertBadRecordMAC))
			_, _ = conn.Write(append(alert, alertBadRecordMAC...))
			s.mu.Lock()
			s.aborts++
			s.mu.Unlock()
			mEmulAborts.Inc()
			return
		}
		expect++

		var reply Frame
		switch frame.Type {
		case MsgHeartbeat:
			mEmulHeartbeats.Inc()
			reply = Frame{Type: MsgAck}
		case MsgEnd:
			s.mu.Lock()
			s.commands++
			s.mu.Unlock()
			mEmulCommands.Inc()
			reply = Frame{Type: MsgResponse, Body: responseBody}
		default:
			continue
		}
		reply.Seq = serverSeq
		serverSeq++
		if _, err := conn.Write(appendFrameRecord(bufs.write[:0], reply)); err != nil {
			return
		}
	}
}

// SpeakerClient emulates the speaker side of the session. Sends and
// Await may run on different goroutines, and Close may be called from
// any goroutine: it ends a blocked send or Await.
type SpeakerClient struct {
	conn net.Conn

	wmu  sync.Mutex // serializes sends: seq and the write buffer
	seq  uint32
	wbuf []byte

	rmu sync.Mutex // serializes Await: the reader
	rd  recordReader

	bufs *buffers // pooled; nil once closed
}

// DialSpeaker connects a speaker client to addr (typically the
// transparent proxy's listen address).
func DialSpeaker(addr string) (*SpeakerClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return nil, fmt.Errorf("emul: dial: %w", err)
	}
	bufs := bufPool.Get().(*buffers)
	return &SpeakerClient{conn: conn, wbuf: bufs.write[:0], rd: recordReader{buf: bufs.read[:]}, bufs: bufs}, nil
}

// Close terminates the session and returns the client's buffers to
// the pool once no send or Await is using them.
func (c *SpeakerClient) Close() error {
	err := c.conn.Close()
	c.wmu.Lock()
	c.rmu.Lock()
	if c.bufs != nil {
		bufPool.Put(c.bufs)
		c.bufs, c.wbuf, c.rd = nil, nil, recordReader{}
	}
	c.rmu.Unlock()
	c.wmu.Unlock()
	return err
}

// LocalAddr returns the client-side address of the session — the
// address the proxy sees as the speaker's remote address, so load
// harnesses can key per-speaker verdict policy off SpeakerAddr.
func (c *SpeakerClient) LocalAddr() string { return c.conn.LocalAddr().String() }

// zeros supplies the bodies of the emulated records: the cloud reads
// only the frame header, so a body's bytes do not matter.
var zeros [maxRecordPayload]byte

// send writes one speaker frame, its body bodyLen zero bytes, as an
// application-data record: one Write of a record built in the
// client's write buffer.
func (c *SpeakerClient) send(typ byte, bodyLen int) error {
	if bodyLen > maxRecordPayload-headerLen {
		return errRecordLength
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.bufs == nil {
		return errClosed
	}
	c.wbuf = appendFrameRecord(c.wbuf[:0], Frame{Seq: c.seq, Type: typ, Body: zeros[:bodyLen]})
	c.seq++
	_, err := c.conn.Write(c.wbuf)
	return err
}

// SendHeartbeat sends one keep-alive frame.
func (c *SpeakerClient) SendHeartbeat() error { return c.send(MsgHeartbeat, 0) }

// frameOverhead is the bytes a framed record adds around the body:
// the TLS record header plus the sequence/type prefix.
const frameOverhead = recordHeaderLen + headerLen

// MinPatternLen is the smallest wire length SendPattern can produce.
const MinPatternLen = frameOverhead + 1

// SendPattern streams records whose on-the-wire lengths equal the
// given byte counts — the bridge between the trace-plane traffic
// generators (which speak in packet lengths, §IV-B's signature unit)
// and the wire plane. Each record carries a normal sequence-numbered
// frame of the given type, so the cloud server accepts the stream and
// still aborts on a drop-induced gap. Lengths below MinPatternLen are
// clamped up to it; a length past the TLS record maximum is an error.
func (c *SpeakerClient) SendPattern(lengths []int, typ byte) error {
	for _, l := range lengths {
		if err := c.send(typ, max(l-frameOverhead, 1)); err != nil {
			return err
		}
	}
	return nil
}

// SendCommand streams a voice command as chunk frames followed by an
// end frame.
func (c *SpeakerClient) SendCommand(chunks, chunkBytes int) error {
	for i := 0; i < chunks; i++ {
		if err := c.send(MsgCommand, chunkBytes); err != nil {
			return err
		}
	}
	return c.send(MsgEnd, 0)
}

// Await reads the next server frame, failing after the timeout or if
// the server alerted/terminated. A timeout that cuts a record short
// keeps its bytes: the next Await finishes that record. The returned
// frame's Body is the caller's.
func (c *SpeakerClient) Await(timeout time.Duration) (Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.bufs == nil {
		return Frame{}, fmt.Errorf("emul: await: %w", errClosed)
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return Frame{}, err
	}
	defer func() { _ = c.conn.SetReadDeadline(time.Time{}) }()
	typ, payload, err := c.rd.next(c.conn)
	if err != nil {
		return Frame{}, fmt.Errorf("emul: await: %w", err)
	}
	if typ == pcap.RecordAlert {
		return Frame{}, ErrSessionClosed
	}
	f, err := decodeFrame(payload)
	f.Body = append([]byte(nil), f.Body...)
	return f, err
}
