package proxy

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// startEchoServer runs a TCP server echoing everything back,
// returning its address and a cleanup function.
func startEchoServer(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = lis.Close()
		wg.Wait()
	})
	return lis.Addr().String()
}

func dialTo(addr string) DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

func newProxy(t *testing.T, upstream string, opts ...Option) *TCP {
	t.Helper()
	p, err := NewTCP("127.0.0.1:0", dialTo(upstream), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func dialClient(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// readN reads exactly n bytes or fails the test.
func readN(t *testing.T, conn net.Conn, n int) []byte {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, n)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("read %d bytes: %v", n, err)
	}
	return buf
}

func TestTCPPassThrough(t *testing.T) {
	upstream := startEchoServer(t)
	p := newProxy(t, upstream)
	client := dialClient(t, p.Addr())

	msg := []byte("hello cloud")
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := readN(t, client, len(msg))
	if string(got) != string(msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
}

func TestTCPHoldDelaysDelivery(t *testing.T) {
	upstream := startEchoServer(t)
	held := make(chan *Session, 1)
	p := newProxy(t, upstream, WithTap(func(s *Session, data []byte) {
		if !s.Holding() {
			s.Hold()
			select {
			case held <- s:
			default:
			}
		}
	}))
	client := dialClient(t, p.Addr())

	if _, err := client.Write([]byte("voice command")); err != nil {
		t.Fatal(err)
	}
	var sess *Session
	select {
	case sess = <-held:
	case <-time.After(2 * time.Second):
		t.Fatal("tap never saw the chunk")
	}

	// While held, no echo arrives.
	_ = client.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, 16)
	if n, err := client.Read(buf); err == nil {
		t.Fatalf("received %d bytes during hold", n)
	}

	if sess.QueuedBytes() == 0 {
		t.Fatal("hold queued nothing")
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
	got := readN(t, client, len("voice command"))
	if string(got) != "voice command" {
		t.Fatalf("after release got %q", got)
	}
}

func TestTCPConnectionSurvivesLongHold(t *testing.T) {
	if testing.Short() {
		t.Skip("long hold test")
	}
	upstream := startEchoServer(t)
	held := make(chan *Session, 1)
	p := newProxy(t, upstream, WithTap(func(s *Session, data []byte) {
		if !s.Holding() {
			s.Hold()
			select {
			case held <- s:
			default:
			}
		}
	}))
	client := dialClient(t, p.Addr())
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	sess := <-held

	// The client can keep writing during the hold — the proxy keeps
	// reading (ACKing), so the connection does not stall or reset.
	for i := 0; i < 50; i++ {
		if _, err := client.Write([]byte("y")); err != nil {
			t.Fatalf("write %d during hold: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
	got := readN(t, client, 51)
	if got[0] != 'x' || got[50] != 'y' {
		t.Fatalf("unexpected released bytes %q", got)
	}
}

func TestTCPDropDiscardsHeldBytes(t *testing.T) {
	upstream := startEchoServer(t)
	held := make(chan *Session, 1)
	var once sync.Once
	p := newProxy(t, upstream, WithTap(func(s *Session, data []byte) {
		once.Do(func() {
			s.Hold()
			held <- s
		})
	}))
	client := dialClient(t, p.Addr())
	if _, err := client.Write([]byte("malicious")); err != nil {
		t.Fatal(err)
	}
	sess := <-held
	// Wait until the chunk is queued (tap runs before forward).
	deadline := time.Now().Add(time.Second)
	for sess.QueuedBytes() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := sess.Drop(); n != len("malicious") {
		t.Fatalf("Drop = %d bytes, want %d", n, len("malicious"))
	}

	// The dropped bytes never reach the echo server; later traffic
	// still flows.
	if _, err := client.Write([]byte("later")); err != nil {
		t.Fatal(err)
	}
	got := readN(t, client, len("later"))
	if string(got) != "later" {
		t.Fatalf("after drop got %q, want %q", got, "later")
	}
}

func TestTCPHoldOrderPreservedAcrossChunks(t *testing.T) {
	upstream := startEchoServer(t)
	held := make(chan *Session, 1)
	p := newProxy(t, upstream, WithTap(func(s *Session, data []byte) {
		if !s.Holding() {
			s.Hold()
			select {
			case held <- s:
			default:
			}
		}
	}))
	client := dialClient(t, p.Addr())
	if _, err := client.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	sess := <-held
	for _, chunk := range []string{"b", "c", "d"} {
		if _, err := client.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Wait for all four chunks to be queued.
	deadline := time.Now().Add(time.Second)
	for sess.QueuedBytes() < 4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
	if got := string(readN(t, client, 4)); got != "abcd" {
		t.Fatalf("released order = %q, want abcd", got)
	}
	if sess.HeldTotal() != 4 {
		t.Fatalf("HeldTotal = %d, want 4", sess.HeldTotal())
	}
}

func TestTCPQueueOverflowTerminatesSession(t *testing.T) {
	upstream := startEchoServer(t)
	held := make(chan *Session, 1)
	p := newProxy(t, upstream,
		WithMaxHoldBytes(8),
		WithTap(func(s *Session, data []byte) {
			if !s.Holding() {
				s.Hold()
				select {
				case held <- s:
				default:
				}
			}
		}))
	client := dialClient(t, p.Addr())
	if _, err := client.Write([]byte("0123456789ABCDEF")); err != nil {
		t.Fatal(err)
	}
	sess := <-held
	select {
	case <-sess.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("overflowing session did not terminate")
	}
}

func TestTCPServerToClientUnaffectedByHold(t *testing.T) {
	// Upstream that pushes data unprompted.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = conn.Write([]byte("server push"))
		time.Sleep(500 * time.Millisecond)
	}()

	p := newProxy(t, lis.Addr().String(), WithTap(func(s *Session, data []byte) { s.Hold() }))
	client := dialClient(t, p.Addr())
	if _, err := client.Write([]byte("held away")); err != nil {
		t.Fatal(err)
	}
	got := readN(t, client, len("server push"))
	if string(got) != "server push" {
		t.Fatalf("got %q", got)
	}
}

func TestTCPCloseTerminatesSessions(t *testing.T) {
	upstream := startEchoServer(t)
	p, err := NewTCP("127.0.0.1:0", dialTo(upstream))
	if err != nil {
		t.Fatal(err)
	}
	client := dialClient(t, p.Addr())
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	readN(t, client, 1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	_ = client.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 1)
	if _, err := client.Read(buf); err == nil {
		t.Fatal("connection still alive after proxy close")
	}
	// Double close is safe.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPSessionsListing(t *testing.T) {
	upstream := startEchoServer(t)
	p := newProxy(t, upstream)
	client := dialClient(t, p.Addr())
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	readN(t, client, 1)
	deadline := time.Now().Add(time.Second)
	for len(p.Sessions()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sessions := p.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sessions))
	}
	if sessions[0].ClientAddr() == "" {
		t.Fatal("empty client address")
	}
}

// startUDPEcho runs a UDP echo server.
func startUDPEcho(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		for {
			n, addr, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			_, _ = conn.WriteToUDP(buf[:n], addr)
		}
	}()
	t.Cleanup(func() {
		_ = conn.Close()
		<-done
	})
	return conn.LocalAddr().String()
}

func TestUDPPassThrough(t *testing.T) {
	upstream := startUDPEcho(t)
	f, err := NewUDP("127.0.0.1:0", upstream, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })

	conn, err := net.Dial("udp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("quic-ish")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "quic-ish" {
		t.Fatalf("echo = %q", buf[:n])
	}
}

func TestUDPHoldReleaseAndDrop(t *testing.T) {
	upstream := startUDPEcho(t)
	f, err := NewUDP("127.0.0.1:0", upstream, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })

	conn, err := net.Dial("udp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	f.Hold()
	if !f.Holding() {
		t.Fatal("Holding() = false after Hold")
	}
	if _, err := conn.Write([]byte("held1")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("held2")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for f.QueuedDatagrams() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if f.QueuedDatagrams() != 2 {
		t.Fatalf("queued = %d, want 2", f.QueuedDatagrams())
	}

	// No echo while holding.
	_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("datagram leaked through hold")
	}

	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "held1" {
		t.Fatalf("first released datagram = %q", buf[:n])
	}

	// Drop path.
	f.Hold()
	if _, err := conn.Write([]byte("bad")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(time.Second)
	for f.QueuedDatagrams() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := f.Drop(); n != 1 {
		t.Fatalf("Drop = %d, want 1", n)
	}
	if f.DroppedTotal() != 1 {
		t.Fatalf("DroppedTotal = %d", f.DroppedTotal())
	}
}

func TestUDPTapObservesDatagrams(t *testing.T) {
	upstream := startUDPEcho(t)
	seen := make(chan string, 4)
	f, err := NewUDP("127.0.0.1:0", upstream, func(fw *UDPForwarder, clientAddr string, data []byte) {
		seen <- string(data)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })

	conn, err := net.Dial("udp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("observe me")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-seen:
		if got != "observe me" {
			t.Fatalf("tap saw %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tap never fired")
	}
}
