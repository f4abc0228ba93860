package anception

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/redirect"
)

// Tests of the one admission point (admit.go) and of the fused-chain
// probes it closes: a fused chain must observe exactly what the same
// chain observes unfused.

// admitApp boots an Anception device with one app.
func admitApp(t *testing.T, opts Options) (*Device, *Proc) {
	t.Helper()
	opts.DisableTrace = true
	d, err := NewDevice(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, installAndLaunch(t, d, "com.example.admit")
}

// TestAdmitStaticClass: blocked, host and split calls take their class's
// route; a task without the redirection entry stays on the host, and a
// sandboxed task running as root is killed.
func TestAdmitStaticClass(t *testing.T) {
	d, p := admitApp(t, Options{})
	cases := map[abi.SyscallNr]redirect.Route{
		abi.SysGetpid: redirect.RouteHost,
		abi.SysFork:   redirect.RouteSplit,
		abi.SysPtrace: redirect.RouteBlocked,
		abi.SysSocket: redirect.RouteGuest,
	}
	for nr, want := range cases {
		if got := d.Layer.admit(p.Task, &kernel.Args{Nr: nr}, false).Route; got != want {
			t.Errorf("admit(%v) = %v, want %v", nr, got, want)
		}
	}
	socket := &kernel.Args{Nr: abi.SysSocket}
	uid := p.Task.Cred.UID
	p.Task.Cred.UID = abi.UIDRoot
	if got := d.Layer.admit(p.Task, socket, false).Route; got != redirect.RouteKill {
		t.Errorf("root task: %v, want kill", got)
	}
	p.Task.Cred.UID = uid
	p.Task.RE = 0
	if got := d.Layer.admit(p.Task, socket, false).Route; got != redirect.RouteHost {
		t.Errorf("task without the redirection entry: %v, want host", got)
	}
}

// TestAdmitPathRule: path-named calls route by the absolute path they
// name; the host-FS ablation keeps every path on the host.
func TestAdmitPathRule(t *testing.T) {
	d, p := admitApp(t, Options{})
	cwd := p.Task.CWD
	cases := []struct {
		args  kernel.Args
		route redirect.Route
		path  string
	}{
		{kernel.Args{Nr: abi.SysOpen, Path: "/system/lib/libc.so"}, redirect.RouteHost, "/system/lib/libc.so"},
		{kernel.Args{Nr: abi.SysOpen, Path: "data.db"}, redirect.RouteGuest, cwd + "/data.db"},
		{kernel.Args{Nr: abi.SysStat, Path: "/dev/binder"}, redirect.RouteHost, "/dev/binder"},
		{kernel.Args{Nr: abi.SysSymlink, Path: "/system/x", Path2: "link"}, redirect.RouteGuest, cwd + "/link"},
		{kernel.Args{Nr: abi.SysRename, Path: "/system/a", Path2: "b"}, redirect.RouteGuest, "/system/a"},
	}
	hostFS, hp := admitApp(t, Options{KeepFSOnHost: true})
	for _, c := range cases {
		adm := d.Layer.admit(p.Task, &c.args, false)
		if adm.Route != c.route || adm.Path != c.path {
			t.Errorf("admit(%v %q %q) = %+v, want %v %q", c.args.Nr, c.args.Path, c.args.Path2, adm, c.route, c.path)
		}
		if got := hostFS.Layer.admit(hp.Task, &c.args, false).Route; got != redirect.RouteHost {
			t.Errorf("KeepFSOnHost admit(%v %q) = %v, want host", c.args.Nr, c.args.Path, got)
		}
	}
}

// TestAdmitDescriptorRule: a descriptor call runs where its descriptor
// lives; a chain link bound to a descriptor an earlier link mints runs in
// the container; sendfile runs there when either descriptor does.
func TestAdmitDescriptorRule(t *testing.T) {
	d, p := admitApp(t, Options{})
	remote := mustOpen(t, p, "remote.dat", abi.ORdWr|abi.OCreat)
	local := mustOpen(t, p, "/system/bin/sh", abi.ORdOnly)
	cases := []struct {
		args  kernel.Args
		bound bool
		want  redirect.Route
	}{
		{kernel.Args{Nr: abi.SysRead, FD: remote}, false, redirect.RouteGuest},
		{kernel.Args{Nr: abi.SysRead, FD: local}, false, redirect.RouteHost},
		{kernel.Args{Nr: abi.SysFstat, FD: 99}, false, redirect.RouteHost},
		{kernel.Args{Nr: abi.SysFstat}, true, redirect.RouteGuest},
		{kernel.Args{Nr: abi.SysSendfile, FD: local, FD2: remote}, false, redirect.RouteGuest},
		{kernel.Args{Nr: abi.SysSendfile, FD: local, FD2: local}, false, redirect.RouteHost},
	}
	for _, c := range cases {
		if got := d.Layer.admit(p.Task, &c.args, c.bound).Route; got != c.want {
			t.Errorf("admit(%v fd=%d fd2=%d bound=%v) = %v, want %v", c.args.Nr, c.args.FD, c.args.FD2, c.bound, got, c.want)
		}
	}
}

// TestAdmitIoctlFollowsDescriptor: an ioctl on a remote descriptor runs
// in the container; one on a host descriptor (binder) stays on the host.
func TestAdmitIoctlFollowsDescriptor(t *testing.T) {
	d, p := admitApp(t, Options{})
	remote := mustOpen(t, p, "dev.dat", abi.ORdWr|abi.OCreat)
	bfd := mustOpen(t, p, "/dev/binder", abi.ORdWr)
	if got := d.Layer.admit(p.Task, &kernel.Args{Nr: abi.SysIoctl, FD: remote}, false).Route; got != redirect.RouteGuest {
		t.Errorf("remote-fd ioctl: %v", got)
	}
	if got := d.Layer.admit(p.Task, &kernel.Args{Nr: abi.SysIoctl, FD: bfd}, false).Route; got != redirect.RouteHost {
		t.Errorf("binder ioctl: %v", got)
	}
}

// chainProfiles are the profiles a chain must not tell apart: the Paper
// profile dispatches every chain per call; the Fast profile fuses.
var chainProfiles = []struct {
	name string
	opts Options
}{
	{"paper", Options{}},
	{"fast", Options{AutoTune: true}},
}

// sameAcrossChainProfiles runs scenario on Paper and Fast and fails unless
// both observe the same.
func sameAcrossChainProfiles(t *testing.T, scenario func(t *testing.T, d *Device, p *Proc) []string) {
	t.Helper()
	var want []string
	for _, prof := range chainProfiles {
		d, p := admitApp(t, prof.opts)
		seedGuestFile(t, p, "chain.dat", []byte("chained bytes"))
		got := scenario(t, d, p)
		if want == nil {
			want = got
			continue
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s chain sees %q, paper sees %q", prof.name, got, want)
		}
	}
}

// chainObservations renders a chain's results and the task's fate.
func chainObservations(d *Device, p *Proc, res []kernel.Result) []string {
	var out []string
	for i, r := range res {
		out = append(out, fmt.Sprintf("link %d: ret=%d err=%s", i, r.Ret, errString(r.Err)))
	}
	return append(out,
		fmt.Sprintf("dead=%v", p.Task.CurrentState() == kernel.TaskDead),
		fmt.Sprintf("killed=%d", d.Layer.Stats().AppsKilled))
}

// TestFusedChainGetpidRunsOnHost: a host-class link reports the app's own
// pid, never the proxy's.
func TestFusedChainGetpidRunsOnHost(t *testing.T) {
	sameAcrossChainProfiles(t, func(t *testing.T, d *Device, p *Proc) []string {
		res := p.Chain(
			ChainCall{Args: kernel.Args{Nr: abi.SysOpen, Path: "chain.dat", Flags: abi.ORdOnly}, FDFrom: -1},
			ChainCall{Args: kernel.Args{Nr: abi.SysGetpid}, FDFrom: -1},
			ChainCall{Args: kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
		)
		if res[1].Ret != int64(p.Task.PID) {
			t.Errorf("chained getpid = %d, want the app's pid %d", res[1].Ret, p.Task.PID)
		}
		return []string{errString(res[0].Err), fmt.Sprint(res[1].Ret == int64(p.Task.PID)), errString(res[2].Err)}
	})
}

// errVeto is the error of the probes' host detectors.
var errVeto = fmt.Errorf("policy: refused: %w", abi.EACCES)

// TestFusedChainDetectorVeto: a host detector vetoing SysOpen fails the
// chain's open link with the detector's errno and short-circuits the rest.
func TestFusedChainDetectorVeto(t *testing.T) {
	sameAcrossChainProfiles(t, func(t *testing.T, d *Device, p *Proc) []string {
		d.AppKernel().AddDetector(func(_ *kernel.Task, a *kernel.Args) error {
			if a.Nr == abi.SysOpen {
				return errVeto
			}
			return nil
		})
		res := p.Chain(openStatReadCloseChain("chain.dat", make([]byte, 13))...)
		for i, r := range res {
			if !errors.Is(r.Err, errVeto) {
				t.Errorf("link %d: %v, want the detector's veto", i, r.Err)
			}
		}
		return chainObservations(d, p, res)
	})
}

// TestFusedChainDetectorVetoMidChain: a veto of link 2 lets links 0 and 1
// run, as they would per call, and the descriptor link 0 opened stays
// open.
func TestFusedChainDetectorVetoMidChain(t *testing.T) {
	sameAcrossChainProfiles(t, func(t *testing.T, d *Device, p *Proc) []string {
		d.AppKernel().AddDetector(func(_ *kernel.Task, a *kernel.Args) error {
			if a.Nr == abi.SysPread64 {
				return errVeto
			}
			return nil
		})
		res := p.Chain(openStatReadCloseChain("chain.dat", make([]byte, 13))...)
		obs := chainObservations(d, p, res)
		if !res[0].Ok() || res[1].Ret != 13 || !errors.Is(res[2].Err, errVeto) || !errors.Is(res[3].Err, errVeto) {
			t.Errorf("mid-chain veto: %q", obs)
		}
		if d.Opts.AutoTune && d.Layer.Stats().Fusion.Chains == 0 {
			t.Error("the Fast profile did not fuse the links before the veto")
		}
		st := p.Syscall(kernel.Args{Nr: abi.SysFstat, FD: res[0].FD})
		return append(obs, fmt.Sprintf("still open: ret=%d err=%s", st.Ret, errString(st.Err)))
	})
}

// TestFusedChainSetuidKills: a chained setuid(0) kills the app and counts
// it, exactly like the trapped call (footnote 3).
func TestFusedChainSetuidKills(t *testing.T) {
	sameAcrossChainProfiles(t, func(t *testing.T, d *Device, p *Proc) []string {
		res := p.Chain(
			ChainCall{Args: kernel.Args{Nr: abi.SysOpen, Path: "chain.dat", Flags: abi.ORdOnly}, FDFrom: -1},
			ChainCall{Args: kernel.Args{Nr: abi.SysSetuid, UID: abi.UIDRoot}, FDFrom: -1},
			ChainCall{Args: kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
		)
		obs := chainObservations(d, p, res)
		if p.Task.CurrentState() != kernel.TaskDead || d.Layer.Stats().AppsKilled != 1 {
			t.Errorf("chained setuid(0) left the app running: %q", obs)
		}
		return obs
	})
}

// TestFusedChainRootTaskKilled: a sandboxed task running as root is
// killed on its chain's first link, like on its first trap.
func TestFusedChainRootTaskKilled(t *testing.T) {
	sameAcrossChainProfiles(t, func(t *testing.T, d *Device, p *Proc) []string {
		p.Task.Cred.UID = abi.UIDRoot
		res := p.Chain(openStatReadCloseChain("chain.dat", make([]byte, 13))...)
		obs := chainObservations(d, p, res)
		if !errors.Is(res[0].Err, abi.EPERM) || p.Task.CurrentState() != kernel.TaskDead || d.Layer.Stats().AppsKilled != 1 {
			t.Errorf("root task's chain: %q", obs)
		}
		return obs
	})
}

// TestFusedChainSymlink: a chained symlink stores its target string, and
// the rest of the chain opens and reads through the link it made.
func TestFusedChainSymlink(t *testing.T) {
	sameAcrossChainProfiles(t, func(t *testing.T, d *Device, p *Proc) []string {
		buf := make([]byte, 13)
		res := p.Chain(
			ChainCall{Args: kernel.Args{Nr: abi.SysSymlink, Path: "chain.dat", Path2: "sym"}, FDFrom: -1},
			ChainCall{Args: kernel.Args{Nr: abi.SysOpen, Path: "sym", Flags: abi.ORdOnly}, FDFrom: -1},
			ChainCall{Args: kernel.Args{Nr: abi.SysPread64, Buf: buf}, FDFrom: 1},
			ChainCall{Args: kernel.Args{Nr: abi.SysClose}, FDFrom: 1},
		)
		target, err := p.Readlink("sym")
		if err != nil || target != "chain.dat" || string(buf) != "chained bytes" {
			t.Errorf("chained symlink: readlink %q %v, read %q", target, err, buf)
		}
		return append(chainObservations(d, p, res), "readlink: "+target+" "+errString(err), "read: "+string(buf))
	})
}

// TestFusedChainSendfileFromHost: a chained sendfile from a host file to
// a container file copies the host file's bytes across.
func TestFusedChainSendfileFromHost(t *testing.T) {
	sameAcrossChainProfiles(t, func(t *testing.T, d *Device, p *Proc) []string {
		in := mustOpen(t, p, "/system/framework/framework.jar", abi.ORdOnly)
		out := mustOpen(t, p, "copy.dat", abi.ORdWr|abi.OCreat)
		res := p.Chain(
			ChainCall{Args: kernel.Args{Nr: abi.SysFstat, FD: out, Buf: make([]byte, 64)}, FDFrom: -1},
			ChainCall{Args: kernel.Args{Nr: abi.SysSendfile, FD: out, FD2: in, Size: 13}, FDFrom: -1},
		)
		got, err := p.Pread(out, 13, 0)
		if err != nil || string(got) != "DEX framework" {
			t.Errorf("chained sendfile copied %q (%v): %q", got, err, chainObservations(d, p, res))
		}
		return append(chainObservations(d, p, res), "copy: "+string(got)+" "+errString(err))
	})
}

// TestFusedChainSyscallCounts: a fused link is counted in the host
// kernel's syscall counts exactly once, as the same call is unfused, and
// links after a failed one are not counted.
func TestFusedChainSyscallCounts(t *testing.T) {
	delta := func(fuse bool, path string) (map[abi.SyscallNr]int, []kernel.Result) {
		d, p := admitApp(t, Options{RingDepth: 64, RingWorkers: 1, FusionEnable: fuse})
		seedGuestFile(t, p, "chain.dat", []byte("chained bytes"))
		before := d.Host.SyscallCounts()
		fused := d.Layer.Stats().Fusion.Chains
		res := p.Chain(openStatReadCloseChain(path, make([]byte, 13))...)
		if chained := d.Layer.Stats().Fusion.Chains > fused; chained != fuse {
			t.Fatalf("fuse=%v: chain fused=%v", fuse, chained)
		}
		after := d.Host.SyscallCounts()
		for nr, n := range before {
			if after[nr] -= n; after[nr] == 0 {
				delete(after, nr)
			}
		}
		return after, res
	}
	for _, c := range []struct {
		path string
		want map[abi.SyscallNr]int
	}{
		{"chain.dat", map[abi.SyscallNr]int{abi.SysOpen: 1, abi.SysFstat: 1, abi.SysPread64: 1, abi.SysClose: 1}},
		{"missing.dat", map[abi.SyscallNr]int{abi.SysOpen: 1}},
	} {
		fused, fres := delta(true, c.path)
		unfused, ures := delta(false, c.path)
		for i := range fres {
			if fres[i].Ret != ures[i].Ret || errString(fres[i].Err) != errString(ures[i].Err) {
				t.Errorf("%s link %d: fused %d %v, unfused %d %v", c.path, i, fres[i].Ret, fres[i].Err, ures[i].Ret, ures[i].Err)
			}
		}
		if !maps.Equal(fused, unfused) {
			t.Errorf("%s: host syscall counts fused %v, unfused %v", c.path, fused, unfused)
		}
		if !maps.Equal(fused, c.want) {
			t.Errorf("%s: host syscall counts %v, want %v", c.path, fused, c.want)
		}
	}
}
