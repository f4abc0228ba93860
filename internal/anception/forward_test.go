package anception

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/netstack"
	"anception/internal/sim"
)

// forwardArmCase is one frame kind of the forward core: the options its
// device needs, whether it exists only over the ring, and a set-up that
// returns one forwarded call of that kind.
type forwardArmCase struct {
	name     string
	ringOnly bool
	opts     func(*Options)
	setup    func(t *testing.T, d *Device, p *Proc) func() error
}

var forwardArmCases = []forwardArmCase{
	{name: "args", setup: func(t *testing.T, d *Device, p *Proc) func() error {
		return func() error {
			_, err := p.Open("args.dat", abi.ORdWr|abi.OCreat, 0o600)
			return err
		}
	}},
	{name: "batch", setup: func(t *testing.T, d *Device, p *Proc) func() error {
		// A cache flush's shape: two buffered extents of one file written
		// back in one batch frame.
		fd := mustOpen(t, p, "batch.dat", abi.ORdWr|abi.OCreat)
		guestFD := lookupFD(p.Task, fd).GuestFD
		calls := []*kernel.Args{
			{Nr: abi.SysPwrite64, FD: guestFD, Buf: []byte("first"), Off: 0},
			{Nr: abi.SysPwrite64, FD: guestFD, Buf: []byte("second"), Off: 8192},
		}
		return func() error {
			_, err := d.Layer.forwardBatch(d.Layer.currentState(), p.Task, calls, nil)
			return err
		}
	}},
	{name: "sock", setup: func(t *testing.T, d *Device, p *Proc) func() error {
		sock := connectedEcho(t, d, p)
		return func() error {
			_, err := p.Send(sock, []byte("ping"))
			return err
		}
	}},
	{name: "grant", opts: func(o *Options) { o.GrantThreshold = 16 << 10 }, setup: func(t *testing.T, d *Device, p *Proc) func() error {
		fd := mustOpen(t, p, "grant.dat", abi.ORdWr|abi.OCreat)
		bulk := make([]byte, 64<<10)
		return func() error {
			_, err := p.Pwrite(fd, bulk, 0)
			return err
		}
	}},
	{name: "chain", ringOnly: true, opts: func(o *Options) { o.FusionEnable = true }, setup: func(t *testing.T, d *Device, p *Proc) func() error {
		seedGuestFile(t, p, "chain.dat", []byte("chained"))
		buf := make([]byte, 7)
		return func() error {
			return p.Chain(openStatReadCloseChain("chain.dat", buf)...)[0].Err
		}
	}},
	{name: "bridge", setup: func(t *testing.T, d *Device, p *Proc) func() error {
		fd, err := p.OpenBinder()
		if err != nil {
			t.Fatal(err)
		}
		return func() error {
			_, err := p.BinderCall(fd, "location", android.CodeGetLocation, nil)
			return err
		}
	}},
	{name: "binder", opts: func(o *Options) { o.BinderSessions = true }, setup: func(t *testing.T, d *Device, p *Proc) func() error {
		fd, err := p.OpenBinder()
		if err != nil {
			t.Fatal(err)
		}
		call := func() error {
			_, err := p.BinderCall(fd, "location", android.CodeGetLocation, nil)
			return err
		}
		if err := call(); err != nil { // opens the session
			t.Fatal(err)
		}
		return call
	}},
}

// connectedEcho connects a socket of p to an echo peer.
func connectedEcho(t *testing.T, d *Device, p *Proc) int {
	t.Helper()
	d.RegisterRemote("echo:7", func(req []byte) []byte { return req })
	sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(sock, "echo:7"); err != nil {
		t.Fatal(err)
	}
	return sock
}

// forwardIdentities checks every per-path accounting identity.
func forwardIdentities(t *testing.T, d *Device) {
	t.Helper()
	st := d.Layer.Stats()
	if n := st.Net; n.Submitted != n.Completed+n.Failed {
		t.Errorf("net accounting broken: %+v", n)
	}
	if f := st.Fusion; f.Submitted != f.Completed+f.Failed {
		t.Errorf("fusion accounting broken: %+v", f)
	}
	if b := st.Binder; b.Submitted != b.Completed+b.Failed {
		t.Errorf("binder accounting broken: %+v", b)
	}
}

// TestForwardFailuresEveryArm: every frame kind the forward core carries
// fails the same way, on the synchronous channel and on the ring. With
// the breaker open the call fails EAGAIN, counts one FailedFast and
// consumes no ring slot; past its deadline it fails ETIMEDOUT, counts
// one TimedOut and records one EvTimeout. Every per-path identity holds
// after each.
func TestForwardFailuresEveryArm(t *testing.T) {
	for _, arm := range forwardArmCases {
		for _, ring := range []bool{false, true} {
			if arm.ringOnly && !ring {
				continue
			}
			channel := "paper"
			if ring {
				channel = "ring"
			}
			t.Run(arm.name+"/"+channel, func(t *testing.T) {
				boot := func() (*Device, func() error) {
					opts := Options{Mode: ModeAnception}
					if ring {
						opts.RingDepth = 8
					}
					if arm.opts != nil {
						arm.opts(&opts)
					}
					d, err := NewDevice(opts)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(d.Close)
					p := installAndLaunch(t, d, "com.forward."+arm.name)
					return d, arm.setup(t, d, p)
				}

				d, op := boot()
				before := d.Layer.Stats()
				d.Layer.SetDegraded(true)
				if err := op(); !errors.Is(err, abi.EAGAIN) {
					t.Errorf("degraded: err = %v, want EAGAIN", err)
				}
				after := d.Layer.Stats()
				if got := after.FailedFast - before.FailedFast; got != 1 {
					t.Errorf("degraded: FailedFast rose by %d, want 1", got)
				}
				if after.Ring.Submitted != before.Ring.Submitted {
					t.Errorf("degraded: ring slots %d -> %d, want none consumed", before.Ring.Submitted, after.Ring.Submitted)
				}
				forwardIdentities(t, d)

				d, op = boot()
				before = d.Layer.Stats()
				timeouts := d.Trace.Count(sim.EvTimeout)
				d.Layer.deadline = time.Nanosecond
				if err := op(); !errors.Is(err, abi.ETIMEDOUT) {
					t.Errorf("deadline: err = %v, want ETIMEDOUT", err)
				}
				if got := d.Layer.Stats().TimedOut - before.TimedOut; got != 1 {
					t.Errorf("deadline: TimedOut rose by %d, want 1", got)
				}
				if got := d.Trace.Count(sim.EvTimeout) - timeouts; got != 1 {
					t.Errorf("deadline: %d EvTimeout recorded, want 1", got)
				}
				forwardIdentities(t, d)
			})
		}
	}
}

// TestSockAccountingSameOnBothChannels: a socket op counts Failed
// exactly when the forward core failed it, on either channel. A breaker
// rejection and a reply that fails checkReply are failures; an errno
// the guest executed (here a firewall veto with EIO, ETIMEDOUT or ENXIO)
// is a completion. Submitted = Completed + Failed after each.
func TestSockAccountingSameOnBothChannels(t *testing.T) {
	for _, ring := range []bool{false, true} {
		name := "paper"
		opts := Options{Mode: ModeAnception}
		if ring {
			name, opts.RingDepth = "ring", 8
		}
		t.Run(name, func(t *testing.T) {
			d, err := NewDevice(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)
			p := installAndLaunch(t, d, "com.forward.sockacct")
			sock := connectedEcho(t, d, p)
			step := func(what string, wantFailed bool, op func() error) {
				t.Helper()
				before := d.Layer.NetStats()
				if err := op(); err == nil {
					t.Errorf("%s: no error", what)
				}
				after := d.Layer.NetStats()
				failed, completed := after.Failed-before.Failed, after.Completed-before.Completed
				if wantFailed && (failed != 1 || completed != 0) || !wantFailed && (failed != 0 || completed != 1) {
					t.Errorf("%s: Failed +%d, Completed +%d; want failed=%v", what, failed, completed, wantFailed)
				}
				if after.Submitted != after.Completed+after.Failed {
					t.Errorf("%s: accounting broken: %+v", what, after)
				}
			}

			d.Layer.SetDegraded(true)
			step("breaker rejection", true, func() error {
				_, err := p.Send(sock, []byte("ping"))
				return err
			})
			d.Layer.SetDegraded(false)

			for _, errno := range []abi.Errno{abi.EIO, abi.ETIMEDOUT, abi.ENXIO} {
				d.SetCVMFirewall(func(abi.Cred, string) error { return fmt.Errorf("vetoed: %w", errno) })
				vetoed, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
				if err != nil {
					t.Fatal(err)
				}
				step(fmt.Sprintf("guest %v veto", errno), false, func() error { return p.Connect(vetoed, "echo:7") })
			}
			d.SetCVMFirewall(nil)

			// The guest claims to have sent more bytes than it was given.
			d.Layer.SetResultTampering(func([]byte) []byte {
				return marshal.AppendResult(nil, kernel.Result{Ret: 1 << 20})
			})
			step("rejected reply", true, func() error {
				_, err := p.Send(sock, []byte("ping"))
				return err
			})
			d.Layer.SetResultTampering(nil)
		})
	}
}

// TestForwardCoreOwnsTheRoundTrip: the forward core is the one path into
// the container and the one landing out of it (DESIGN.md §10). In the
// package's non-test code nothing submits to the ring directly, only the
// core and the heartbeat run a transport round trip, only the core takes
// the circuit-breaker gate, only the binder arm's guest handler
// transacts with the container's binder driver (and opens a session
// there, which restore-time reconciliation also does), and only the
// core's landing decodes a reply or checks one; a rule the core enforces
// then holds for every forwarded call and binder transaction.
func TestForwardCoreOwnsTheRoundTrip(t *testing.T) {
	allowed := map[string][]string{
		"Submit":          nil,
		"RoundTrip":       {"forwardFrame", "Ping"},
		"enterGuestCall":  {"forwardFrame"},
		"Transact":        {"execBinder"},
		"TransactSession": {"execBinder"},
		"OpenSession":     {"execBinder", "reconcileBinder"},
		"checkReply":      {"land"},
		"Result":          {"land"},
		"ResultBatch":     {"land"},
		"ChainResult":     {"land"},
	}
	seen := map[string]int{}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var name string
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				case *ast.Ident:
					name = fun.Name
				default:
					return true
				}
				callers, guarded := allowed[name]
				if !guarded {
					return true
				}
				seen[name]++
				for _, c := range callers {
					if fn.Name.Name == c {
						return true
					}
				}
				t.Errorf("%s: %s calls %s outside the forward core", fset.Position(call.Pos()), fn.Name.Name, name)
				return true
			})
		}
	}
	for name, callers := range allowed {
		if len(callers) > 0 && seen[name] == 0 {
			t.Errorf("found no call of %s: the guard checks nothing", name)
		}
	}
	if seen["checkReply"] != 1 {
		t.Errorf("checkReply is called %d times, want once", seen["checkReply"])
	}
}
