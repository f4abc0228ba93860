package anception

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/netstack"
)

// bootFusedDevice boots an Anception device with the async ring and the
// syscall-fusion layer enabled (cache on, so the composition rules —
// flush-before-chain, cache-served links — are exercised too).
func bootFusedDevice(t *testing.T) (*Device, *Proc) {
	t.Helper()
	return bootCachedDevice(t, func(o *Options) {
		o.RingDepth = 16
		o.FusionEnable = true
	})
}

// seedGuestFile creates a file through the app itself so ownership is
// right, then closes it so any buffered bytes land in the guest.
func seedGuestFile(t *testing.T, p *Proc, name string, content []byte) {
	t.Helper()
	fd := mustOpen(t, p, name, abi.ORdWr|abi.OCreat)
	mustPwrite(t, p, fd, content, 0)
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// openStatReadCloseChain builds the canonical 4-link fused shape: the
// fstat, pread, and close all bind the descriptor minted by link 0.
func openStatReadCloseChain(path string, buf []byte) []ChainCall {
	return []ChainCall{
		{Args: kernel.Args{Nr: abi.SysOpen, Path: path, Flags: abi.ORdWr}, FDFrom: -1},
		{Args: kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
		{Args: kernel.Args{Nr: abi.SysPread64, Buf: buf}, FDFrom: 0},
		{Args: kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	}
}

// TestChainFusedOpenStatReadClose: the explicit Chain API executes a
// dependent open→fstat→pread→close entirely guest-side in one
// submission, rewrites the minted descriptor to a host fd, writes read
// data back into the caller's buffer, and retires the descriptor after
// the chained close.
func TestChainFusedOpenStatReadClose(t *testing.T) {
	d, p := bootFusedDevice(t)
	content := []byte("fused chains ride one doorbell")
	seedGuestFile(t, p, "fuse.dat", content)

	buf := make([]byte, len(content))
	results := p.Chain(openStatReadCloseChain("fuse.dat", buf)...)
	if len(results) != 4 {
		t.Fatalf("chain returned %d results, want 4", len(results))
	}
	for i, r := range results {
		if !r.Ok() {
			t.Fatalf("link %d failed: %v", i, r.Err)
		}
	}
	if results[0].FD <= 0 {
		t.Fatalf("open link minted fd %d, want a host descriptor", results[0].FD)
	}
	if results[1].Ret != int64(len(content)) {
		t.Fatalf("fstat Ret = %d, want file size %d", results[1].Ret, len(content))
	}
	if results[2].Ret != int64(len(content)) || !bytes.Equal(buf, content) {
		t.Fatalf("pread Ret=%d buf=%q, want %d bytes %q", results[2].Ret, buf, len(content), content)
	}
	if _, ok := p.Task.FD(results[0].FD); ok {
		t.Fatalf("descriptor %d still installed after chained close", results[0].FD)
	}

	fs := d.Layer.Stats().Fusion
	if fs.Explicit != 1 || fs.Chains < 1 {
		t.Fatalf("stats: Explicit=%d Chains=%d, want 1 explicit chain fused", fs.Explicit, fs.Chains)
	}
	if fs.Submitted != fs.Completed+fs.Failed {
		t.Fatalf("accounting identity broken: Submitted=%d Completed=%d Failed=%d",
			fs.Submitted, fs.Completed, fs.Failed)
	}
	if fs.Failed != 0 {
		t.Fatalf("Failed=%d on an all-success chain", fs.Failed)
	}
}

// TestChainShortCircuitErrno: a failing mid-chain link returns its own
// errno and the remaining links are not executed.
func TestChainShortCircuitErrno(t *testing.T) {
	d, p := bootFusedDevice(t)
	seedGuestFile(t, p, "short.dat", []byte("x"))

	results := p.Chain(
		ChainCall{Args: kernel.Args{Nr: abi.SysOpen, Path: "no-such-file", Flags: abi.ORdOnly}, FDFrom: -1},
		ChainCall{Args: kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
		ChainCall{Args: kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	)
	if results[0].Ok() {
		t.Fatal("open of missing file succeeded")
	}
	if !errors.Is(results[0].Err, abi.ENOENT) {
		t.Fatalf("open err = %v, want ENOENT", results[0].Err)
	}
	for i := 1; i < 3; i++ {
		if results[i].Ok() {
			t.Fatalf("link %d ran despite short-circuit", i)
		}
	}
	fs := d.Layer.Stats().Fusion
	if fs.Submitted != fs.Completed+fs.Failed {
		t.Fatalf("accounting identity broken: Submitted=%d Completed=%d Failed=%d",
			fs.Submitted, fs.Completed, fs.Failed)
	}
}

// TestChainOverMaxLinksFallsBack: a chain one link longer than
// DefaultFusionMaxLinks is not fused. It falls back to per-call
// dispatch, and every link returns what the same call returns unfused.
func TestChainOverMaxLinksFallsBack(t *testing.T) {
	d, p := bootFusedDevice(t)
	const chunk = 16
	reads := DefaultFusionMaxLinks + 1 - 3 // beside open, fstat and close
	content := make([]byte, reads*chunk)
	for i := range content {
		content[i] = byte(i)
	}
	seedGuestFile(t, p, "long.dat", content)

	chain := []ChainCall{
		{Args: kernel.Args{Nr: abi.SysOpen, Path: "long.dat", Flags: abi.ORdWr}, FDFrom: -1},
		{Args: kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
	}
	for i := 0; i < reads; i++ {
		chain = append(chain, ChainCall{Args: kernel.Args{Nr: abi.SysPread64, Buf: make([]byte, chunk)}, FDFrom: 0, UseCursor: true})
	}
	chain = append(chain, ChainCall{Args: kernel.Args{Nr: abi.SysClose}, FDFrom: 0})
	got := p.Chain(chain...)

	fd := mustOpen(t, p, "long.dat", abi.ORdWr)
	want := []kernel.Result{{}, p.Syscall(kernel.Args{Nr: abi.SysFstat, FD: fd})}
	for i := 0; i < reads; i++ {
		want = append(want, p.Syscall(kernel.Args{Nr: abi.SysPread64, FD: fd, Buf: make([]byte, chunk), Off: int64(i * chunk)}))
	}
	want = append(want, p.Syscall(kernel.Args{Nr: abi.SysClose, FD: fd}))

	if len(got) != len(want) {
		t.Fatalf("chain returned %d results, want %d", len(got), len(want))
	}
	if !got[0].Ok() {
		t.Fatalf("open link failed: %v", got[0].Err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Err != nil || want[i].Err != nil || got[i].Ret != want[i].Ret {
			t.Fatalf("link %d: chained Ret=%d err=%v, per-call Ret=%d err=%v", i, got[i].Ret, got[i].Err, want[i].Ret, want[i].Err)
		}
	}
	for i := 0; i < reads; i++ {
		if buf := chain[2+i].Args.Buf; !bytes.Equal(buf, content[i*chunk:(i+1)*chunk]) {
			t.Fatalf("pread link %d read %v, want %v", i, buf, content[i*chunk:(i+1)*chunk])
		}
	}
	fs := d.Layer.Stats().Fusion
	if fs.Fallbacks != 1 || fs.Chains != 0 {
		t.Fatalf("stats: Fallbacks=%d Chains=%d, want the chain to fall back, not fuse", fs.Fallbacks, fs.Chains)
	}
}

// TestChainMatchesUnfused: the fused chain and the plain per-call
// sequence observe the same results.
func TestChainMatchesUnfused(t *testing.T) {
	content := []byte("two arms, one answer")

	run := func(t *testing.T, fused bool) (int64, int64, []byte) {
		var p *Proc
		if fused {
			_, p = bootFusedDevice(t)
		} else {
			_, p = bootCachedDevice(t, nil)
		}
		seedGuestFile(t, p, "arms.dat", content)
		buf := make([]byte, len(content))
		res := p.Chain(openStatReadCloseChain("arms.dat", buf)...)
		for i, r := range res {
			if !r.Ok() {
				t.Fatalf("fused=%v link %d: %v", fused, i, r.Err)
			}
		}
		return res[1].Ret, res[2].Ret, buf
	}

	fStat, fRead, fBuf := run(t, true)
	uStat, uRead, uBuf := run(t, false)
	if fStat != uStat || fRead != uRead || !bytes.Equal(fBuf, uBuf) {
		t.Fatalf("fused (stat=%d read=%d %q) != unfused (stat=%d read=%d %q)",
			fStat, fRead, fBuf, uStat, uRead, uBuf)
	}
}

// TestChainInvalidBinding: a forward or self reference is rejected with
// EINVAL on every link, before anything executes.
func TestChainInvalidBinding(t *testing.T) {
	_, p := bootFusedDevice(t)
	results := p.Chain(
		ChainCall{Args: kernel.Args{Nr: abi.SysFstat}, FDFrom: 1},
		ChainCall{Args: kernel.Args{Nr: abi.SysClose}, FDFrom: -1},
	)
	for i, r := range results {
		if !errors.Is(r.Err, abi.EINVAL) {
			t.Fatalf("link %d err = %v, want EINVAL", i, r.Err)
		}
	}
}

// echoSocket launches an app connected to an echo peer on a Fast-profile
// device, where the fusion detector learns send→recv pairs.
func echoSocket(t *testing.T) (*Device, *Proc, int) {
	t.Helper()
	d := bootPolicyDevice(t, Options{AutoTune: true, CallDeadline: time.Hour})
	d.RegisterRemote("echo:7", func(req []byte) []byte { return req })
	p := installAndLaunch(t, d, "com.fusion.echo")
	sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(sock, "echo:7"); err != nil {
		t.Fatal(err)
	}
	return d, p, sock
}

// echoRounds sends n distinct messages and checks each echo.
func echoRounds(t *testing.T, p *Proc, sock, n int) {
	t.Helper()
	buf := make([]byte, 8)
	for i := 0; i < n; i++ {
		msg := []byte(fmt.Sprintf("round-%02d", i))
		if _, err := p.Send(sock, msg); err != nil {
			t.Fatalf("round %d send: %v", i, err)
		}
		if got, err := p.RecvInto(sock, buf); err != nil || !bytes.Equal(buf[:got], msg) {
			t.Fatalf("round %d echo = %q, %v; want %q", i, buf[:got], err, msg)
		}
	}
}

// TestFusionSpeculationServes: after the detector has seen send→recv
// twice, later sends are speculatively fused with a recv and the app's
// recvs are served from the buffered reply — without changing what the
// app observes.
func TestFusionSpeculationServes(t *testing.T) {
	d, p, sock := echoSocket(t)
	echoRounds(t, p, sock, 6)

	fs := d.Layer.Stats().Fusion
	if fs.PatternHits == 0 {
		t.Fatal("detector saw 6 send→recv pairs but recorded no pattern hits")
	}
	if fs.SpecServed == 0 {
		t.Fatalf("no speculatively-served calls after 6 hot rounds: %+v", fs)
	}
	if fs.Mispredicts != 0 {
		t.Fatalf("mispredicts on a perfectly repeating workload: %+v", fs)
	}
	if fs.Submitted != fs.Completed+fs.Failed {
		t.Fatalf("accounting identity broken: %+v", fs)
	}
}

// TestFusionMispredict: when the app breaks the learned shape — it sends
// and closes without receiving — the speculated reply is dropped with the
// descriptor, and the next socket sees only its own replies.
func TestFusionMispredict(t *testing.T) {
	d, p, sock := echoSocket(t)
	echoRounds(t, p, sock, 3)

	before := d.Layer.Stats().Fusion
	if before.SpecServed == 0 {
		t.Fatalf("workload did not reach speculation: %+v", before)
	}
	if _, err := p.Send(sock, []byte("DIVERGED")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(sock); err != nil {
		t.Fatal(err)
	}
	fs := d.Layer.Stats().Fusion
	if fs.SpecDropped != before.SpecDropped+1 || fs.Mispredicts != 0 {
		t.Fatalf("close with a speculated reply pending: before=%+v after=%+v", before, fs)
	}

	again, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(again, "echo:7"); err != nil {
		t.Fatal(err)
	}
	echoRounds(t, p, again, 1)
}

// TestFusionDeterminism: the pattern detector is scheduled by counters,
// not wall-clock or randomness — two identical runs fuse identically.
func TestFusionDeterminism(t *testing.T) {
	runOnce := func(t *testing.T) FusionStats {
		d, p, sock := echoSocket(t)
		echoRounds(t, p, sock, 8)
		return d.Layer.Stats().Fusion
	}
	a := runOnce(t)
	b := runOnce(t)
	if a != b {
		t.Fatalf("same-seed runs diverged:\n  a=%+v\n  b=%+v", a, b)
	}
	if a.Chains == 0 {
		t.Fatalf("no speculation to compare: %+v", a)
	}
}

// BenchmarkFusion_OpenStatReadClose: the canonical fused chain — the
// evaluate fusion experiment's fused arm, as a smoke-runnable benchmark.
func BenchmarkFusion_OpenStatReadClose(b *testing.B) {
	p := benchFusionDevice(b, true)
	content := bytes.Repeat([]byte("b"), 4096)
	benchSeed(b, p, "bench.dat", content)
	buf := make([]byte, len(content))
	chain := openStatReadCloseChain("bench.dat", buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := p.Chain(chain...)
		for j := range res {
			if !res[j].Ok() {
				b.Fatalf("iter %d link %d: %v", i, j, res[j].Err)
			}
		}
	}
}

// BenchmarkFusion_UnfusedOpenStatReadClose: the same logical chain as
// four independent ring round trips — the comparison arm.
func BenchmarkFusion_UnfusedOpenStatReadClose(b *testing.B) {
	p := benchFusionDevice(b, false)
	content := bytes.Repeat([]byte("b"), 4096)
	benchSeed(b, p, "bench.dat", content)
	buf := make([]byte, len(content))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd, err := p.Open("bench.dat", abi.ORdWr, 0o600)
		if err != nil {
			b.Fatal(err)
		}
		if st := p.Syscall(kernel.Args{Nr: abi.SysFstat, FD: fd}); !st.Ok() {
			b.Fatal(st.Err)
		}
		if _, err := p.PreadInto(fd, buf, 0); err != nil {
			b.Fatal(err)
		}
		if err := p.Close(fd); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSeed(b *testing.B, p *Proc, name string, content []byte) {
	b.Helper()
	fd, err := p.Open(name, abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Pwrite(fd, content, 0); err != nil {
		b.Fatal(err)
	}
	if err := p.Close(fd); err != nil {
		b.Fatal(err)
	}
}

func benchFusionDevice(b *testing.B, fused bool) *Proc {
	b.Helper()
	d, err := NewDevice(Options{
		Mode:         ModeAnception,
		RingDepth:    64,
		FusionEnable: fused,
	})
	if err != nil {
		b.Fatal(err)
	}
	app, err := d.InstallApp(android.AppSpec{Package: "com.example.fusionbench"})
	if err != nil {
		b.Fatal(err)
	}
	p, err := d.Launch(app)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// TestFusionDrySpeculativeRecvStopsSendRecv: the send→recv speculation
// gate. A task whose speculative recv came back empty (a peer that does
// not answer each send) stops fusing send→recv, so Chains stops growing;
// a task talking to an echo peer keeps speculating on every send.
func TestFusionDrySpeculativeRecvStopsSendRecv(t *testing.T) {
	rounds := func(t *testing.T, reply func([]byte) []byte, n int) []FusionStats {
		d := bootPolicyDevice(t, Options{AutoTune: true, CallDeadline: time.Hour})
		d.RegisterRemote("peer:1", reply)
		p := installAndLaunch(t, d, "com.fusion.sendrecv")
		sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Connect(sock, "peer:1"); err != nil {
			t.Fatal(err)
		}
		msg, buf := []byte("ping"), make([]byte, 4)
		var stats []FusionStats
		for i := 0; i < n; i++ {
			if _, err := p.Send(sock, msg); err != nil {
				t.Fatalf("round %d send: %v", i, err)
			}
			got, err := p.RecvInto(sock, buf)
			if reply != nil && reply(msg) != nil {
				if err != nil || !bytes.Equal(buf[:got], msg) {
					t.Fatalf("round %d echo = %q, %v", i, buf[:got], err)
				}
			} else if !errors.Is(err, abi.EAGAIN) {
				t.Fatalf("round %d recv from a silent peer: %v, want EAGAIN", i, err)
			}
			stats = append(stats, d.Layer.Stats().Fusion)
		}
		return stats
	}

	silent := rounds(t, func([]byte) []byte { return nil }, 12)
	dry := -1
	for i, s := range silent {
		if s.SpecDropped > 0 {
			dry = i
			break
		}
	}
	if dry < 0 {
		t.Fatal("the detector never speculated against the silent peer")
	}
	if last := silent[len(silent)-1]; last.Chains != silent[dry].Chains || last.SpecDropped != 1 {
		t.Fatalf("after the dry recv in round %d: chains %d -> %d, dropped %d; want no more speculation",
			dry, silent[dry].Chains, last.Chains, last.SpecDropped)
	}

	echo := rounds(t, func(req []byte) []byte { return req }, 12)
	first := -1
	for i, s := range echo {
		if s.Chains > 0 {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("the detector never speculated against the echo peer")
	}
	last := echo[len(echo)-1]
	if last.Chains != echo[first].Chains+int64(len(echo)-1-first) {
		t.Fatalf("echo peer: %d chains in the last %d rounds, want one per round", last.Chains-echo[first].Chains, len(echo)-1-first)
	}
	if last.SpecDropped != 0 || last.Mispredicts != 0 {
		t.Fatalf("echo peer dropped or mispredicted speculation: %+v", last)
	}
}
