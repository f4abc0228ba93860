package netstack

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"anception/internal/abi"
)

// Receive-buffer recycling (DESIGN.md §14): loopback messages ride
// buffers from the stack's free list, which go back when the message is
// fully read or its socket closes. A recycled buffer must never show a
// byte of an earlier message. A scripted remote's request copy rides the
// same free list; a remote handler's own response is never recycled.

var otherCred = Cred{UID: abi.UIDAppBase + 1, PID: 200}

// loopbackPair connects a client owned by cred to a fresh listener at
// addr and returns the client and its accepted server half.
func loopbackPair(t *testing.T, s *Stack, cred Cred, addr string) (cli, srv *Socket) {
	t.Helper()
	l := listenAt(t, s, addr)
	cli, _ = s.Socket(cred, AFInet, SockStream, 0)
	if err := cli.Connect(addr); err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return cli, srv
}

// TestLoopbackEchoAllocs: in steady state a loopback send→recv pair
// allocates nothing, for every size the free list serves.
func TestLoopbackEchoAllocs(t *testing.T) {
	s := New("cvm")
	cli, srv := loopbackPair(t, s, appCred, "echo:1")
	for _, size := range []int{256, 4 << 10, 64 << 10} {
		msg := bytes.Repeat([]byte{0xC3}, size)
		buf := make([]byte, size)
		op := func() {
			if _, err := cli.Send(msg); err != nil {
				t.Fatalf("send: %v", err)
			}
			if n, err := srv.Recv(buf); err != nil || n != size {
				t.Fatalf("recv: n=%d err=%v", n, err)
			}
		}
		op()
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%d B loopback send→recv: %.1f allocs/pair, want 0", size, allocs)
		}
	}
}

// TestConnectAcceptAllocs: a whole loopback session — connect, accept
// into the caller's storage, send, recv, close both — makes the two
// Socket structs and nothing else. The accepted half's first message
// rides its inline receive slot, and the backlog is compacted in place.
func TestConnectAcceptAllocs(t *testing.T) {
	s := New("cvm")
	l := listenAt(t, s, "svc:5")
	msg, buf := []byte("hello"), make([]byte, 16)
	var storage [1]*Socket
	op := func() {
		cli, _ := s.Socket(appCred, AFInet, SockStream, 0)
		if err := cli.Connect("svc:5"); err != nil {
			t.Fatal(err)
		}
		conns, err := l.AcceptBatch(storage[:0], 0)
		if err != nil || len(conns) != 1 {
			t.Fatalf("accept: %d conns, %v", len(conns), err)
		}
		if _, err := cli.Send(msg); err != nil {
			t.Fatalf("send: %v", err)
		}
		if n, err := conns[0].Recv(buf); err != nil || string(buf[:n]) != string(msg) {
			t.Fatalf("recv: %q %v", buf[:n], err)
		}
		conns[0].Close()
		cli.Close()
	}
	op()
	if allocs := testing.AllocsPerRun(200, op); allocs > 2 {
		t.Errorf("loopback session: %.1f allocs, ceiling 2", allocs)
	}
}

// TestRecycledBufferShowsOnlyNewBytes: one app receives a 64 KiB message
// and closes its socket; another app's socket then sends 256 B. The
// receiver, reading into a 64 KiB buffer, gets exactly those 256 B.
func TestRecycledBufferShowsOnlyNewBytes(t *testing.T) {
	s := New("cvm")
	cliA, srvA := loopbackPair(t, s, appCred, "a:1")
	secret := bytes.Repeat([]byte("A-secret"), (64<<10)/8)
	if _, err := cliA.Send(secret); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 64<<10)
	if n, err := srvA.Recv(big); err != nil || n != len(secret) {
		t.Fatalf("app A recv: n=%d err=%v", n, err)
	}
	srvA.Close()
	cliA.Close()

	cliB, srvB := loopbackPair(t, s, otherCred, "b:1")
	msg := bytes.Repeat([]byte{'b'}, 256)
	if _, err := cliB.Send(msg); err != nil {
		t.Fatal(err)
	}
	clear(big)
	n, err := srvB.Recv(big)
	if err != nil || n != len(msg) || !bytes.Equal(big[:n], msg) {
		t.Fatalf("app B recv: n=%d err=%v head=%q", n, err, big[:min(n, 16)])
	}
	if bytes.Contains(big, []byte("A-secret")) {
		t.Fatal("app B's receive buffer holds app A's bytes")
	}
	if _, err := srvB.Recv(big); !errors.Is(err, abi.EAGAIN) {
		t.Fatalf("second recv: %v, want EAGAIN", err)
	}
}

// TestPartialRecvThenCloseLeavesNothing: a stream read that takes part of
// a message, then Close, leaves no byte readable, and the next message
// through the recycled buffer carries only its own bytes.
func TestPartialRecvThenCloseLeavesNothing(t *testing.T) {
	s := New("cvm")
	cli, srv := loopbackPair(t, s, appCred, "p:1")
	if _, err := cli.Send([]byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 4)
	if n, _ := srv.Recv(head); string(head[:n]) != "0123" {
		t.Fatalf("head = %q", head[:n])
	}
	srv.Close()
	if got := srv.Pending(); got != 0 {
		t.Fatalf("%d messages still queued after close", got)
	}
	if n, err := srv.Recv(head); !errors.Is(err, abi.EBADF) || n != 0 {
		t.Fatalf("recv after close: n=%d err=%v, want EBADF", n, err)
	}

	cli2, srv2 := loopbackPair(t, s, otherCred, "p:2")
	if _, err := cli2.Send([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _ := srv2.Recv(buf); string(buf[:n]) != "xy" {
		t.Fatalf("next message = %q, want \"xy\"", buf[:n])
	}
}

// TestRemoteResponseNotRecycled: a remote handler's response belongs to
// the handler. Reading it returns nothing to the free list, so later
// loopback traffic never writes into the handler's slice.
func TestRemoteResponseNotRecycled(t *testing.T) {
	s := New("cvm")
	resp := []byte("handler-owned-reply")
	s.RegisterRemote("r:9", func([]byte) []byte { return resp })
	sk, _ := s.Socket(appCred, AFInet, SockStream, 0)
	if err := sk.Connect("r:9"); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Send([]byte("q")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, _ := sk.Recv(buf); string(buf[:n]) != string(resp) {
		t.Fatalf("recv = %q", buf[:n])
	}
	cli, srv := loopbackPair(t, s, appCred, "l:9")
	for i := 0; i < 8; i++ {
		if _, err := cli.Send(bytes.Repeat([]byte{'z'}, len(resp))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := srv.Recv(buf); err != nil {
			t.Fatal(err)
		}
	}
	if string(resp) != "handler-owned-reply" {
		t.Fatalf("handler's response was overwritten: %q", resp)
	}
}

// TestRemoteSliceResponseNotRecycled: a handler that answers with a
// slice of its request other than a prefix (req[1:]) shares the request's
// buffer, so neither goes back to the free list: loopback traffic sent
// before the response is read cannot overwrite it.
func TestRemoteSliceResponseNotRecycled(t *testing.T) {
	s := New("cvm")
	var resp []byte
	s.RegisterRemote("r:9", func(req []byte) []byte {
		resp = req[1:]
		return resp
	})
	sk, _ := s.Socket(appCred, AFInet, SockStream, 0)
	if err := sk.Connect("r:9"); err != nil {
		t.Fatal(err)
	}
	req := []byte("xhandler-sliced-reply")
	if _, err := sk.Send(req); err != nil {
		t.Fatal(err)
	}
	cli, srv := loopbackPair(t, s, appCred, "l:9")
	buf := make([]byte, 64)
	for i := 0; i < 8; i++ {
		if _, err := cli.Send(bytes.Repeat([]byte{'z'}, len(req))); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Recv(buf); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := sk.Recv(buf); string(buf[:n]) != "handler-sliced-reply" {
		t.Fatalf("recv = %q, want the handler's reply", buf[:n])
	}
	for i := 0; i < 8; i++ {
		if _, err := cli.Send(bytes.Repeat([]byte{'z'}, len(req))); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Recv(buf); err != nil {
			t.Fatal(err)
		}
	}
	if string(resp) != "handler-sliced-reply" {
		t.Fatalf("handler's response was overwritten: %q", resp)
	}
}

// TestRemoteEchoAllocs: in steady state a send→recv pair with a scripted
// echo remote allocates nothing: the request copy rides a recycled
// buffer, and the echo goes back to the free list when read.
func TestRemoteEchoAllocs(t *testing.T) {
	s := New("cvm")
	s.RegisterRemote("echo:9", func(req []byte) []byte { return req })
	sk, _ := s.Socket(appCred, AFInet, SockStream, 0)
	if err := sk.Connect("echo:9"); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{256, 4 << 10, 64 << 10} {
		msg := bytes.Repeat([]byte{0xC3}, size)
		buf := make([]byte, size)
		op := func() {
			if _, err := sk.Send(msg); err != nil {
				t.Fatalf("send: %v", err)
			}
			if n, err := sk.Recv(buf); err != nil || n != size {
				t.Fatalf("recv: n=%d err=%v", n, err)
			}
		}
		op()
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%d B remote echo send→recv: %.1f allocs/pair, want 0", size, allocs)
		}
	}
}

// TestRecycledRemoteRequestShowsOnlyNewBytes: a short request after a
// long one reuses the long one's buffer. The handler sees exactly the
// short request's bytes, and so does the app reading the echo or the
// prefix echo; a handler's fresh reply returns the request buffer at
// once, and the next request through it is again only its own bytes.
func TestRecycledRemoteRequestShowsOnlyNewBytes(t *testing.T) {
	s := New("cvm")
	var seen []byte
	reply := func(req []byte) []byte { return req }
	s.RegisterRemote("r:1", func(req []byte) []byte {
		seen = append(seen[:0], req...)
		return reply(req)
	})
	sk, _ := s.Socket(appCred, AFInet, SockStream, 0)
	if err := sk.Connect("r:1"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	exchange := func(req []byte, want string) {
		t.Helper()
		if _, err := sk.Send(req); err != nil {
			t.Fatal(err)
		}
		if string(seen) != string(req) {
			t.Fatalf("handler saw %q, want %q", seen, req)
		}
		clear(buf)
		n, err := sk.Recv(buf)
		if err != nil || string(buf[:n]) != want {
			t.Fatalf("recv = %q, %v; want %q", buf[:n], err, want)
		}
	}
	long := bytes.Repeat([]byte("L-secret"), 30) // 240 B: the 256 B class
	short := bytes.Repeat([]byte{'s'}, 140)      // same class
	exchange(long, string(long))
	exchange(short, string(short))
	reply = func(req []byte) []byte { return req[:3] }
	exchange(long, string(long[:3]))
	exchange(short, string(short[:3]))
	reply = func([]byte) []byte { return []byte("fresh") }
	exchange(long, "fresh")
	exchange(short, "fresh")
	if _, err := sk.Recv(buf); !errors.Is(err, abi.EAGAIN) {
		t.Fatalf("extra recv: %v, want EAGAIN", err)
	}
}

// TestRecvQueueOrderAcrossWrap: a queue that is drained and refilled in
// uneven steps, so the queue slides down and rewinds, keeps FIFO order
// and byte counts.
func TestRecvQueueOrderAcrossWrap(t *testing.T) {
	s := New("cvm")
	cli, srv := loopbackPair(t, s, appCred, "w:1")
	next, want := 0, 0
	buf := make([]byte, 16)
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			if _, err := cli.Send([]byte(fmt.Sprintf("m%d", next))); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < round%5+1 && want < next; i++ {
			n, err := srv.Recv(buf)
			if err != nil || string(buf[:n]) != fmt.Sprintf("m%d", want) {
				t.Fatalf("recv %d: %q %v", want, buf[:n], err)
			}
			want++
		}
		if got := srv.Pending(); got != next-want {
			t.Fatalf("round %d: %d pending, want %d", round, got, next-want)
		}
	}
}

// TestRxPoolBounds: the free list keeps at most one buffer of the largest
// class and four of each smaller one; a message past the largest class
// gets a buffer of its own.
func TestRxPoolBounds(t *testing.T) {
	s := New("cvm")
	cli, srv := loopbackPair(t, s, appCred, "b:1")
	srv.SetRcvBuf(2 << 20)
	buf := make([]byte, 128<<10)
	for _, size := range []int{100, 64 << 10, 100 << 10} {
		for i := 0; i < 10; i++ {
			if _, err := cli.Send(make([]byte, size)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			if _, err := srv.Recv(buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.rx.mu.Lock()
	defer s.rx.mu.Unlock()
	for c, free := range s.rx.free {
		keep := rxKeepSmall
		if c == rxClasses-1 {
			keep = rxKeepLarge
		}
		if len(free) > keep {
			t.Errorf("class %d B holds %d buffers, bound %d", 1<<(rxMinShift+c), len(free), keep)
		}
		for _, b := range free {
			if cap(b) != 1<<(rxMinShift+c) {
				t.Errorf("class %d B holds a %d B buffer", 1<<(rxMinShift+c), cap(b))
			}
		}
	}
	if got := len(s.rx.free[rxClass(100)]); got != rxKeepSmall {
		t.Errorf("128 B class holds %d buffers after 10 messages, want %d", got, rxKeepSmall)
	}
	if rxClass(100<<10) != -1 {
		t.Error("a 100 KiB message must not come from the free list")
	}
}

// TestRecycledBuffersAcrossGoroutines: connections on one stack send and
// receive from several goroutines at once, sharing its free list. Each
// message must arrive intact: a buffer handed to two messages at once
// would mix their bytes.
func TestRecycledBuffersAcrossGoroutines(t *testing.T) {
	s := New("cvm")
	const workers, rounds = 4, 300
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		cli, srv := loopbackPair(t, s, appCred, fmt.Sprintf("g:%d", w))
		go func(w int) {
			defer func() { done <- struct{}{} }()
			buf := make([]byte, 4<<10)
			for i := 0; i < rounds; i++ {
				msg := bytes.Repeat([]byte{byte(w*rounds + i)}, 100+(i*37)%4000)
				if _, err := cli.Send(msg); err != nil {
					t.Errorf("worker %d send: %v", w, err)
					return
				}
				if n, err := srv.Recv(buf); err != nil || !bytes.Equal(buf[:n], msg) {
					t.Errorf("worker %d round %d: got %d bytes (err %v), want %d intact", w, i, n, err, len(msg))
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
