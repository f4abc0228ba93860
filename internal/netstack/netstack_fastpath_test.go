package netstack

import (
	"errors"
	"fmt"
	"testing"

	"anception/internal/abi"
)

// TestRecvBudgetStreamBackpressure: a full stream receive queue pushes
// EAGAIN back at the sender instead of growing without bound, and a Recv
// that frees budget lets the sender proceed.
func TestRecvBudgetStreamBackpressure(t *testing.T) {
	s := New("host")
	srv, _ := s.Socket(rootCred, AFInet, SockStream, 0)
	if err := srv.Bind("svc:1"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	cli, _ := s.Socket(appCred, AFInet, SockStream, 0)
	if err := cli.Connect("svc:1"); err != nil {
		t.Fatal(err)
	}
	peer, err := srv.Accept()
	if err != nil {
		t.Fatal(err)
	}
	peer.SetRcvBuf(8)

	if _, err := cli.Send([]byte("12345678")); err != nil {
		t.Fatalf("send within budget: %v", err)
	}
	if _, err := cli.Send([]byte("x")); !errors.Is(err, abi.EAGAIN) {
		t.Fatalf("send past budget: %v, want EAGAIN", err)
	}
	buf := make([]byte, 8)
	if _, err := peer.Recv(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Send([]byte("x")); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
	if got := s.DgramDrops(); got != 0 {
		t.Fatalf("stream backpressure counted as dgram drop: %d", got)
	}
}

// TestRecvBudgetDgramDrops: a full datagram queue silently drops the
// message — the send still reports success, open-loop style — and the
// stack counts the drop.
func TestRecvBudgetDgramDrops(t *testing.T) {
	s := New("host")
	// The listener is a stream socket (dgram sockets don't listen); the
	// accepted side inherits the connecting client's dgram type, which is
	// what drop-vs-backpressure keys on.
	srv, _ := s.Socket(rootCred, AFInet, SockStream, 0)
	if err := srv.Bind("svc:2"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	cli, _ := s.Socket(appCred, AFInet, SockDgram, 0)
	if err := cli.Connect("svc:2"); err != nil {
		t.Fatal(err)
	}
	peer, err := srv.Accept()
	if err != nil {
		t.Fatal(err)
	}
	peer.SetRcvBuf(8)

	if n, err := cli.Send([]byte("12345678")); err != nil || n != 8 {
		t.Fatalf("send within budget: n=%d err=%v", n, err)
	}
	if n, err := cli.Send([]byte("dropped")); err != nil || n != 7 {
		t.Fatalf("dgram overflow must look sent: n=%d err=%v", n, err)
	}
	if got := s.DgramDrops(); got != 1 {
		t.Fatalf("DgramDrops = %d, want 1", got)
	}
	buf := make([]byte, 16)
	n, err := peer.Recv(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "12345678" {
		t.Fatalf("kept message = %q", buf[:n])
	}
	if peer.Pending() != 0 {
		t.Fatalf("dropped dgram still queued: pending=%d", peer.Pending())
	}
}

// TestAcceptBatch: one call drains up to max pending connections, in
// arrival order, appending them to the caller's slice; an empty backlog
// is EAGAIN, not a zero-length success.
func TestAcceptBatch(t *testing.T) {
	s := New("host")
	srv := listenAt(t, s, "svc:3")
	for i := 0; i < 5; i++ {
		cli, _ := s.Socket(appCred, AFInet, SockStream, 0)
		if err := cli.Connect("svc:3"); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Backlog(); got != 5 {
		t.Fatalf("Backlog = %d, want 5", got)
	}
	var storage [8]*Socket
	first, err := srv.AcceptBatch(storage[:0], 3)
	if err != nil || len(first) != 3 || &first[0] != &storage[0] {
		t.Fatalf("AcceptBatch(3) = %d conns, err %v", len(first), err)
	}
	all, err := srv.AcceptBatch(first, 0) // 0 = drain everything
	if err != nil || len(all) != 5 || all[0] != first[0] {
		t.Fatalf("AcceptBatch(0) = %d conns, err %v", len(all), err)
	}
	if got, err := srv.AcceptBatch(nil, 4); !errors.Is(err, abi.EAGAIN) || len(got) != 0 {
		t.Fatalf("empty backlog: %d conns, %v, want EAGAIN", len(got), err)
	}
}

// listenAt returns a root-owned stream socket listening at addr.
func listenAt(t *testing.T, s *Stack, addr string) *Socket {
	t.Helper()
	l, _ := s.Socket(rootCred, AFInet, SockStream, 0)
	if err := l.Bind(addr); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestBacklogOrderAcrossPartialAccepts: accept 3 of 5 pending
// connections, connect 2 more, and the rest come out oldest first. Each
// client sends its arrival index, which its accepted half receives.
func TestBacklogOrderAcrossPartialAccepts(t *testing.T) {
	s := New("cvm")
	l := listenAt(t, s, "svc:4")
	next := 0
	connect := func(k int) {
		for range k {
			cli, _ := s.Socket(appCred, AFInet, SockStream, 0)
			if err := cli.Connect("svc:4"); err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Send([]byte{byte(next)}); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	var order []byte
	accept := func(max int) {
		conns, err := l.AcceptBatch(nil, max)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range conns {
			var b [1]byte
			if _, err := c.Recv(b[:]); err != nil {
				t.Fatal(err)
			}
			order = append(order, b[0])
		}
	}
	connect(5)
	accept(3)
	connect(2)
	accept(0)
	if want := []byte{0, 1, 2, 3, 4, 5, 6}; string(order) != string(want) {
		t.Fatalf("accept order %v, want %v", order, want)
	}
}

// TestConnectPolicyRecheckOnGenerationRoll is the regression test for the
// boot-generation rollover contract: a socket that passed the policy at
// connect time re-runs the then-current policy after the stack generation
// rolls (a CVM restart), so a deny policy swapped in around the restart
// applies to surviving sockets — not just new connects.
func TestConnectPolicyRecheckOnGenerationRoll(t *testing.T) {
	s := New("cvm")
	s.RegisterRemote("bank.com:443", func(req []byte) []byte { return []byte("ok") })
	s.SetConnectPolicy(func(cred Cred, addr string) error { return nil })

	sk, _ := s.Socket(appCred, AFInet, SockStream, 0)
	if err := sk.Connect("bank.com:443"); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Send([]byte("q")); err != nil {
		t.Fatalf("send under permissive policy: %v", err)
	}

	// Swapping the policy alone does not disturb an established socket:
	// its connect-time check still stands for this boot generation.
	s.SetConnectPolicy(func(cred Cred, addr string) error {
		return fmt.Errorf("firewalled: %w", abi.ENETUNREACH)
	})
	if _, err := sk.Send([]byte("q")); err != nil {
		t.Fatalf("send in same generation: %v", err)
	}

	// The restart rolls the generation; the surviving socket's next op
	// re-runs the (now denying) policy.
	s.SetGeneration(s.Generation() + 1)
	if _, err := sk.Send([]byte("q")); !errors.Is(err, abi.ENETUNREACH) {
		t.Fatalf("send after generation roll: %v, want ENETUNREACH", err)
	}
	buf := make([]byte, 4)
	if _, err := sk.Recv(buf); !errors.Is(err, abi.ENETUNREACH) {
		t.Fatalf("recv after generation roll: %v, want ENETUNREACH", err)
	}

	// Lifting the deny re-admits the socket and pins the new generation:
	// later swaps within the same generation no longer apply.
	s.SetConnectPolicy(nil)
	if _, err := sk.Send([]byte("q")); err != nil {
		t.Fatalf("send after policy lifted: %v", err)
	}
	s.SetConnectPolicy(func(cred Cred, addr string) error { return abi.ENETUNREACH })
	if _, err := sk.Send([]byte("q")); err != nil {
		t.Fatalf("re-checked socket must stay admitted until the next roll: %v", err)
	}
}

// TestPolicyRecheckSkipsServerSideSockets: accepted server-side sockets
// never ran a connect-time check, so a generation roll must not subject
// them to the outbound policy.
func TestPolicyRecheckSkipsServerSideSockets(t *testing.T) {
	s := New("cvm")
	srv, _ := s.Socket(rootCred, AFInet, SockStream, 0)
	if err := srv.Bind("svc:4"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	cli, _ := s.Socket(appCred, AFInet, SockStream, 0)
	if err := cli.Connect("svc:4"); err != nil {
		t.Fatal(err)
	}
	peer, err := srv.Accept()
	if err != nil {
		t.Fatal(err)
	}

	s.SetConnectPolicy(func(cred Cred, addr string) error { return abi.ENETUNREACH })
	s.SetGeneration(s.Generation() + 1)
	if _, err := peer.Send([]byte("reply")); err != nil {
		t.Fatalf("server-side socket hit outbound policy: %v", err)
	}
	// The outbound client socket, by contrast, is re-checked and denied.
	if _, err := cli.Send([]byte("req")); !errors.Is(err, abi.ENETUNREACH) {
		t.Fatalf("client socket after roll: %v, want ENETUNREACH", err)
	}
}
