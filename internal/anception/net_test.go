package anception

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/netstack"
)

// Batched accept and readiness (DESIGN.md §14): an accept4 or epoll_wait
// reply's descriptor list lands in the Proc's reused list buffer, so the
// only thing a batch makes is the []int the app gets back.

// listenRig boots a device with opts and launches a server app listening
// on a guest socket watched by an epoll instance, and a client app.
func listenRig(t *testing.T, opts Options) (d *Device, srv, cli *Proc, lfd, epfd int) {
	t.Helper()
	d, srv = admitApp(t, opts)
	cli = installAndLaunch(t, d, "com.example.netclient")
	var err error
	if lfd, err = srv.Socket(netstack.AFInet, netstack.SockStream, 0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(lfd, "svc.cvm:9000"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(lfd, 0); err != nil {
		t.Fatal(err)
	}
	if epfd, err = srv.EpollCreate(); err != nil {
		t.Fatal(err)
	}
	if err := srv.EpollCtl(epfd, kernel.EpollCtlAdd, lfd); err != nil {
		t.Fatal(err)
	}
	return d, srv, cli, lfd, epfd
}

// connectTagged connects n client sockets to the rig's listener; each
// sends its two-byte tag, first+i, which its accepted half receives.
func connectTagged(t *testing.T, cli *Proc, first, n int) []int {
	t.Helper()
	fds := make([]int, 0, n)
	for i := range n {
		fd, err := cli.Socket(netstack.AFInet, netstack.SockStream, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Connect(fd, "svc.cvm:9000"); err != nil {
			t.Fatal(err)
		}
		tag := first + i
		if _, err := cli.Send(fd, []byte{byte(tag), byte(tag >> 8)}); err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	return fds
}

// tagOf receives the tag an accepted connection's client sent.
func tagOf(t *testing.T, srv *Proc, fd int) int {
	t.Helper()
	var b [2]byte
	if n, err := srv.RecvInto(fd, b[:]); err != nil || n != 2 {
		t.Fatalf("recv tag on fd %d: n=%d err=%v", fd, n, err)
	}
	return int(b[0]) | int(b[1])<<8
}

// closeAll closes every descriptor in fds.
func closeAll(t *testing.T, p *Proc, fds []int) {
	t.Helper()
	for _, fd := range fds {
		if err := p.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAcceptBatchAllocs: a 4-connection batch through Proc.AcceptBatch
// on the Fast profile's ring. The guest appends the accepted descriptors
// into the frame's scratch, the reply's list lands in the Proc's buffer
// and is translated there, so the one allocation is the app's []int.
// Only the accept is measured: the connects and closes around it make
// the sockets.
func TestAcceptBatchAllocs(t *testing.T) {
	_, srv, cli, lfd, _ := listenRig(t, Options{AutoTune: true, CallDeadline: time.Hour})
	var ms runtime.MemStats
	var mallocs uint64
	const warm, rounds = 50, 200
	for i := range warm + rounds {
		clients := connectTagged(t, cli, 0, 4)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		conns, err := srv.AcceptBatch(lfd, 0)
		runtime.ReadMemStats(&ms)
		if i >= warm {
			mallocs += ms.Mallocs - before
		}
		if err != nil || len(conns) != 4 {
			t.Fatalf("accept batch: %d conns, %v", len(conns), err)
		}
		closeAll(t, srv, conns)
		closeAll(t, cli, clients)
	}
	allocGate(t, "4-connection accept batch", float64(mallocs)/rounds, 1)
}

// TestRecycledFDListShowsOnlyNewBytes: a 3-connection batch and then a
// 1-connection batch on the same Proc land in the same buffer; the
// second returns exactly its one new descriptor, never the first batch's
// tail. On Paper and Fast.
func TestRecycledFDListShowsOnlyNewBytes(t *testing.T) {
	for _, prof := range chainProfiles {
		t.Run(prof.name, func(t *testing.T) {
			_, srv, cli, lfd, _ := listenRig(t, prof.opts)
			connectTagged(t, cli, 0, 3)
			first, err := srv.AcceptBatch(lfd, 0)
			if err != nil || len(first) != 3 {
				t.Fatalf("first batch: %v %v", first, err)
			}
			connectTagged(t, cli, 3, 1)
			second, err := srv.AcceptBatch(lfd, 0)
			if err != nil || len(second) != 1 {
				t.Fatalf("second batch: %v %v, want one descriptor", second, err)
			}
			if slices.Contains(first, second[0]) {
				t.Fatalf("second batch %v repeats the first %v", second, first)
			}
			if tag := tagOf(t, srv, second[0]); tag != 3 {
				t.Fatalf("second batch's connection has tag %d, want 3", tag)
			}
		})
	}
}

// TestConcurrentAcceptBatchAndEpollWait: two goroutines poll and accept
// on one Proc at once, so one lands its lists in the Proc's buffer while
// the other falls back to a fresh one. Every connection is accepted
// exactly once and reads its own client's tag.
func TestConcurrentAcceptBatchAndEpollWait(t *testing.T) {
	_, srv, cli, lfd, epfd := listenRig(t, Options{AutoTune: true})
	const conns = 48
	connectTagged(t, cli, 0, conns)
	var mu sync.Mutex
	var accepted []int
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ready, err := srv.EpollWait(epfd, 0)
				if err != nil {
					t.Errorf("epoll_wait: %v", err)
					return
				}
				if len(ready) > 0 && ready[0] != lfd {
					t.Errorf("epoll_wait: ready %v, want the listener %d", ready, lfd)
					return
				}
				got, err := srv.AcceptBatch(lfd, 3)
				if errors.Is(err, abi.EAGAIN) {
					return
				}
				if err != nil {
					t.Errorf("accept batch: %v", err)
					return
				}
				mu.Lock()
				accepted = append(accepted, got...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(accepted) != conns {
		t.Fatalf("%d connections accepted, want %d", len(accepted), conns)
	}
	seen := make(map[int]bool)
	for _, fd := range accepted {
		tag := tagOf(t, srv, fd)
		if seen[tag] {
			t.Fatalf("connection %d accepted twice", tag)
		}
		seen[tag] = true
	}
}
