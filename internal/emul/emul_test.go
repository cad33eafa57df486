package emul

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"voiceguard/internal/proxy"
)

func startServer(t *testing.T) *CloudServer {
	t.Helper()
	s, err := NewCloudServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestDirectCommandRoundTrip(t *testing.T) {
	s := startServer(t)
	c, err := DialSpeaker(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.SendCommand(5, 1000); err != nil {
		t.Fatal(err)
	}
	f, err := c.Await(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgResponse {
		t.Fatalf("response type = %c, want %c", f.Type, MsgResponse)
	}
	if s.CompletedCommands() != 1 {
		t.Fatalf("server commands = %d, want 1", s.CompletedCommands())
	}
}

func TestHeartbeatAck(t *testing.T) {
	s := startServer(t)
	c, err := DialSpeaker(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.SendHeartbeat(); err != nil {
			t.Fatal(err)
		}
		f, err := c.Await(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != MsgAck {
			t.Fatalf("heartbeat reply = %c, want %c", f.Type, MsgAck)
		}
	}
}

// proxied wires a speaker through the transparent proxy to the cloud,
// returning the client, the cloud, and a channel delivering the
// session once the first chunk is observed and held.
func proxied(t *testing.T) (*SpeakerClient, *CloudServer, chan *proxy.Session) {
	t.Helper()
	s := startServer(t)
	held := make(chan *proxy.Session, 1)
	var once sync.Once
	p, err := proxy.NewTCP("127.0.0.1:0",
		func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", s.Addr())
		},
		proxy.WithTap(func(sess *proxy.Session, data []byte) {
			once.Do(func() {
				sess.Hold()
				held <- sess
			})
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })

	c, err := DialSpeaker(p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, s, held
}

func TestFig4CaseII_HoldThenRelease(t *testing.T) {
	c, s, held := proxied(t)

	if err := c.SendCommand(3, 800); err != nil {
		t.Fatal(err)
	}
	sess := <-held
	// Hold for the paper's 1.5 seconds (shortened), then release.
	time.Sleep(150 * time.Millisecond)
	if s.CompletedCommands() != 0 {
		t.Fatal("command reached the cloud during the hold")
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
	f, err := c.Await(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgResponse {
		t.Fatalf("after release got %c", f.Type)
	}
	if s.CompletedCommands() != 1 {
		t.Fatalf("commands = %d, want 1", s.CompletedCommands())
	}
}

func TestFig4CaseIII_HoldThenDrop(t *testing.T) {
	c, s, held := proxied(t)

	if err := c.SendCommand(3, 800); err != nil {
		t.Fatal(err)
	}
	sess := <-held
	waitQueued(t, sess)
	sess.Drop()

	// The speaker keeps talking; the next record's sequence number no
	// longer matches, so the cloud alerts and closes.
	if err := c.SendHeartbeat(); err != nil {
		t.Fatal(err)
	}
	_, err := c.Await(3 * time.Second)
	if !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("await after drop = %v, want ErrSessionClosed", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.SequenceAborts() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s.SequenceAborts() != 1 {
		t.Fatalf("sequence aborts = %d, want 1", s.SequenceAborts())
	}
	if s.CompletedCommands() != 0 {
		t.Fatal("dropped command still completed")
	}
}

func waitQueued(t *testing.T, sess *proxy.Session) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for sess.QueuedBytes() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sess.QueuedBytes() == 0 {
		t.Fatal("nothing queued")
	}
}

func TestSequenceGapDetectedWithoutProxy(t *testing.T) {
	s := startServer(t)
	c, err := DialSpeaker(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Skip a sequence number manually.
	c.seq = 5
	if err := c.SendHeartbeat(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Await(2 * time.Second); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("err = %v, want ErrSessionClosed", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	in := Frame{Seq: 42, Type: MsgCommand, Body: []byte("audio")}
	out, err := decodeFrame(appendFrame(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.Type != in.Type || string(out.Body) != string(in.Body) {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestDecodeFrameTooShort(t *testing.T) {
	if _, err := decodeFrame([]byte{1, 2}); err == nil {
		t.Fatal("accepted short frame")
	}
}

func TestServerCloseIsIdempotent(t *testing.T) {
	s := startServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Once a session is up, a record the speaker sends and the cloud
// parses allocates nothing on either side: records are built and
// parsed in the sessions' buffers. The heartbeat's acknowledgement
// proves the cloud parsed it.
func TestHeartbeatRoundTripAllocatesNothing(t *testing.T) {
	s := startServer(t)
	c, err := DialSpeaker(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	beat := func() {
		if err := c.SendHeartbeat(); err != nil {
			t.Fatal(err)
		}
		if f, err := c.Await(2 * time.Second); err != nil || f.Type != MsgAck {
			t.Fatalf("heartbeat reply = %+v, %v", f, err)
		}
	}
	beat()
	if allocs := testing.AllocsPerRun(100, beat); allocs != 0 {
		t.Fatalf("a heartbeat round trip allocated %v times", allocs)
	}
}

// A read deadline that fires mid-record keeps the bytes already read:
// the next Await completes the record instead of losing the stream's
// framing.
func TestAwaitKeepsPartialRecord(t *testing.T) {
	speakerEnd, cloudEnd := net.Pipe()
	defer cloudEnd.Close()
	bufs := bufPool.Get().(*buffers)
	c := &SpeakerClient{conn: speakerEnd, wbuf: bufs.write[:0], rd: recordReader{buf: bufs.read[:]}, bufs: bufs}
	defer c.Close()

	rec := appendFrameRecord(nil, Frame{Seq: 7, Type: MsgResponse, Body: []byte("ok")})
	next := appendFrameRecord(nil, Frame{Seq: 8, Type: MsgAck})
	wrote := make(chan error, 1)
	go func() {
		_, err := cloudEnd.Write(rec[:6]) // the record header and one byte
		wrote <- err
	}()
	if _, err := c.Await(50 * time.Millisecond); err == nil {
		t.Fatal("await of half a record succeeded")
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := cloudEnd.Write(append(rec[6:], next...))
		wrote <- err
	}()
	for _, want := range []Frame{{Seq: 7, Type: MsgResponse, Body: []byte("ok")}, {Seq: 8, Type: MsgAck}} {
		f, err := c.Await(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != want.Seq || f.Type != want.Type || string(f.Body) != string(want.Body) {
			t.Fatalf("frame = %+v, want %+v", f, want)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

// A record longer than the session buffer still arrives whole.
func TestRecordLargerThanBuffer(t *testing.T) {
	s := startServer(t)
	c, err := DialSpeaker(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendCommand(2, 3*bufSize); err != nil {
		t.Fatal(err)
	}
	if f, err := c.Await(2 * time.Second); err != nil || f.Type != MsgResponse {
		t.Fatalf("response = %+v, %v", f, err)
	}
	if err := c.SendPattern([]int{maxRecordPayload + recordHeaderLen + 1}, MsgCommand); err == nil {
		t.Fatal("sent a record past the TLS maximum")
	}
}

// echoCommand is a recognizable Echo voice-command spike as record
// lengths on the wire, then its end-of-command record.
var echoCommand = []int{277, 138, 90, 113, 131, 1100, 1200, 1150}

// BenchmarkEmulCommand is the emulator's share of one wire command
// with no guard in between: the speaker sends an Echo command spike
// and its end record straight to the cloud, and awaits the answer.
func BenchmarkEmulCommand(b *testing.B) {
	s, err := NewCloudServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := DialSpeaker(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.SendPattern(echoCommand, MsgCommand); err != nil {
			b.Fatal(err)
		}
		if err := c.SendPattern([]int{60}, MsgEnd); err != nil {
			b.Fatal(err)
		}
		if f, err := c.Await(2 * time.Second); err != nil || f.Type != MsgResponse {
			b.Fatalf("response = %+v, %v", f, err)
		}
	}
}
