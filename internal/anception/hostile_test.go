package anception

import (
	"errors"
	"fmt"
	"testing"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/netstack"
)

// The container is untrusted (paper §VII): a compromised one can return
// any reply that decodes. These seeds are replies a real kernel's
// copy-out could never produce. Each must reach the app as EIO through
// the redirected interface, never as a panic in the layer or in the
// app-side Proc helpers.

// forgeReplies makes every reply the container sends the given frame
// until the returned function is called.
func forgeReplies(d *Device, frame []byte) (restore func()) {
	d.Layer.SetResultTampering(func([]byte) []byte { return frame })
	return func() { d.Layer.SetResultTampering(nil) }
}

// wantEIO fails unless err is a rejected reply.
func wantEIO(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, abi.EIO) {
		t.Errorf("%s: err = %v, want EIO", what, err)
	}
}

// TestHostileReplySeedCorpus runs the seed corpus on Paper and Fast: an
// oversized read return on the copy path and on the grant path (Paper
// moves the same 64 KiB read by copy), a negative return with no errno,
// an error reply whose errno is 0 or outside abi's set, and a chain
// result longer than its chain. After each, the app's next honest call
// works. The binder seeds run the same rejected replies through the
// Paper bridge, its sessions and Fast, each with the reply cache on: a
// forged reply to a cacheable transaction is stored nowhere. Open and dup
// replies that mint a guest fd of 0 or below, or one the app already
// maps, install nothing, a stat's kind tag must be one of vfs's letters,
// and an accept4's or epoll_wait's descriptor list must be whole, as long
// as its return says and no longer than its batch.
func TestHostileReplySeedCorpus(t *testing.T) {
	for _, prof := range []struct {
		name string
		opts Options
	}{
		{"paper", Options{BinderReplyCache: true}},
		{"paper-sessions", Options{BinderSessions: true, BinderReplyCache: true}},
		{"fast", Options{AutoTune: true}},
	} {
		t.Run("binder/"+prof.name, func(t *testing.T) {
			d, p, fd := bootBinderDevice(t, prof.opts)
			n := 0
			call := func() error { // a fresh payload each time: a cache miss
				n++
				_, err := p.BinderCall(fd, "location", android.CodeGetLocation, []byte{byte(n)})
				return err
			}
			if err := call(); err != nil { // opens the session, if any
				t.Fatal(err)
			}
			for _, forged := range []kernel.Result{{Ret: -5}, {Ret: -1, Err: abi.Errno(0)}, {Ret: -1, Err: abi.Errno(9999)}} {
				stores := d.BinderStats().ReplyStores
				restore := forgeReplies(d, marshal.AppendResult(nil, forged))
				err := call()
				restore()
				wantEIO(t, fmt.Sprintf("binder reply %+v", forged), err)
				if got := d.BinderStats().ReplyStores; got != stores {
					t.Errorf("binder reply %+v: reply cache stored %d replies", forged, got-stores)
				}
				if err := call(); err != nil {
					t.Fatalf("honest binder call after reply %+v: %v", forged, err)
				}
			}
			binderIdentity(t, d)
		})
	}

	for _, prof := range chainProfiles {
		t.Run(prof.name, func(t *testing.T) {
			d, p := admitApp(t, prof.opts)
			content := make([]byte, 64<<10)
			for i := range content {
				content[i] = byte(i * 7)
			}
			seedGuestFile(t, p, "victim.dat", content)
			fd := mustOpen(t, p, "victim.dat", abi.ORdWr)
			honest := func(what string) {
				t.Helper()
				if got, err := p.Pread(fd, 16, 0); err != nil || string(got) != string(content[:16]) {
					t.Fatalf("honest read after %s: %q %v", what, got, err)
				}
			}

			oversized := marshal.AppendResult(nil, kernel.Result{Ret: 1 << 20, Data: make([]byte, 16)})
			restore := forgeReplies(d, oversized)
			_, err := p.Read(fd, 16)
			restore()
			wantEIO(t, "copy-path read returning 1 MiB into 16 bytes", err)
			honest("oversized copy-path read")

			before := d.Layer.GrantStats().Calls
			restore = forgeReplies(d, marshal.AppendResult(nil, kernel.Result{Ret: 1 << 20}))
			_, err = p.Pread(fd, len(content), 0)
			restore()
			wantEIO(t, "64 KiB read returning 1 MiB", err)
			if granted := d.Layer.GrantStats().Calls > before; granted != (prof.name == "fast") {
				t.Errorf("64 KiB read granted=%v on %s", granted, prof.name)
			}
			honest("oversized 64 KiB read")

			// The 64 KiB write rewrites what the file holds; the Fast
			// profile's cache would absorb a small one.
			restore = forgeReplies(d, marshal.AppendResult(nil, kernel.Result{Ret: -5}))
			_, rerr := p.Read(fd, 16)
			_, werr := p.Pwrite(fd, content, 0)
			restore()
			wantEIO(t, "read returning -5 without an errno", rerr)
			wantEIO(t, "64 KiB write returning -5 without an errno", werr)
			honest("negative returns")

			for _, errno := range []abi.Errno{0, 9999} {
				restore = forgeReplies(d, marshal.AppendResult(nil, kernel.Result{Ret: -1, Err: errno}))
				_, rerr := p.Read(fd, 16)
				_, werr := p.Pwrite(fd, content, 0)
				restore()
				wantEIO(t, fmt.Sprintf("read failing with errno %d", int(errno)), rerr)
				wantEIO(t, fmt.Sprintf("64 KiB write failing with errno %d", int(errno)), werr)
				honest(fmt.Sprintf("errno %d", int(errno)))
			}

			// Five results for a four-link chain. On Paper the chain runs
			// per call and no reply decodes; on Fast the fused chain's
			// reply decodes and is rejected.
			buf := make([]byte, 16)
			five := make([]kernel.Result, 5)
			restore = forgeReplies(d, marshal.AppendChainResult(nil, marshal.ChainResult{Executed: 5, Results: five}))
			results := p.Chain(openStatReadCloseChain("victim.dat", buf)...)
			restore()
			if len(results) != 4 {
				t.Fatalf("%d results for a 4-link chain", len(results))
			}
			for i, res := range results {
				switch {
				case res.Ok():
					t.Errorf("link %d of an over-long chain reply succeeded: %+v", i, res)
				case prof.name == "fast":
					wantEIO(t, "link of an over-long chain reply", res.Err)
				}
			}
			honest("over-long chain result")

			// Descriptor-creating replies that name no new guest
			// descriptor: a guest fd of 0 or below, or the one the app's
			// victim descriptor already maps. On open and on dup each
			// fails EIO and installs nothing.
			mapped := lookupFD(p.Task, fd).GuestFD
			for _, forged := range []kernel.Result{{FD: 0}, {FD: -3}, {Ret: int64(mapped), FD: mapped}} {
				for _, c := range []struct {
					name string
					call func() error
				}{
					{"open", func() error { _, err := p.Open("victim.dat", abi.ORdOnly, 0); return err }},
					{"dup", func() error { return p.Syscall(kernel.Args{Nr: abi.SysDup, FD: fd}).Err }},
				} {
					before := len(p.Task.FDs())
					restore = forgeReplies(d, marshal.AppendResult(nil, forged))
					err := c.call()
					restore()
					wantEIO(t, fmt.Sprintf("%s minting guest fd %d", c.name, forged.FD), err)
					if after := len(p.Task.FDs()); after != before {
						t.Errorf("%s minting guest fd %d: %d descriptors installed", c.name, forged.FD, after-before)
					}
				}
			}
			honest("forged descriptor replies")

			// A stat whose kind tag is not one of vfs's letters.
			for _, tag := range []string{"x", "--", ""} {
				restore = forgeReplies(d, marshal.AppendResult(nil, kernel.Result{Ret: 5, Data: []byte(tag)}))
				_, err := p.Stat("victim.dat")
				restore()
				wantEIO(t, fmt.Sprintf("stat with kind tag %q", tag), err)
			}
			honest("forged stat replies")

			// Descriptor lists that break the batch: 17 descriptors for a
			// batch of 16, a return that is not the list's length, and a
			// ragged list. An accept4 adopts none of them and an
			// epoll_wait returns none.
			lfd, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Bind(lfd, "hostile.cvm:1"); err != nil {
				t.Fatal(err)
			}
			if err := p.Listen(lfd, 0); err != nil {
				t.Fatal(err)
			}
			epfd, err := p.EpollCreate()
			if err != nil {
				t.Fatal(err)
			}
			if err := p.EpollCtl(epfd, kernel.EpollCtlAdd, lfd); err != nil {
				t.Fatal(err)
			}
			fdList := func(n int) []byte {
				var list []byte
				for i := range n {
					list = abi.AppendFD(list, 100+i)
				}
				return list
			}
			for _, forged := range []struct {
				name string
				res  kernel.Result
			}{
				{"17 descriptors for a batch of 16", kernel.Result{Ret: 17, Data: fdList(17)}},
				{"return 2 with 3 descriptors", kernel.Result{Ret: 2, Data: fdList(3)}},
				{"a ragged list", kernel.Result{Ret: 1, Data: append(fdList(1), 0xFF)}},
			} {
				for _, c := range []struct {
					name string
					call func() ([]int, error)
				}{
					{"accept4", func() ([]int, error) { return p.AcceptBatch(lfd, DefaultNetBatch) }},
					{"epoll_wait", func() ([]int, error) { return p.EpollWait(epfd, DefaultNetBatch) }},
				} {
					before := len(p.Task.FDs())
					restore = forgeReplies(d, marshal.AppendResult(nil, forged.res))
					fds, err := c.call()
					restore()
					wantEIO(t, fmt.Sprintf("%s with %s", c.name, forged.name), err)
					if len(fds) != 0 {
						t.Errorf("%s with %s returned %v", c.name, forged.name, fds)
					}
					if after := len(p.Task.FDs()); after != before {
						t.Errorf("%s with %s: %d descriptors installed", c.name, forged.name, after-before)
					}
				}
			}
			if _, err := p.AcceptBatch(lfd, 0); !errors.Is(err, abi.EAGAIN) {
				t.Errorf("honest accept4 after forged lists: %v, want EAGAIN", err)
			}
			honest("forged descriptor lists")
		})
	}
}
