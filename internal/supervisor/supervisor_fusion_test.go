package supervisor_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/supervisor"
)

// TestSupervisedChainKilledMidChain is the fused-chain fault drill: the
// container panics between links K and K+1 of a 4-link chain, for every
// K. The completed prefix keeps its results, every remaining link fails
// with EHOSTDOWN, the fusion accounting identity holds, and after the
// watchdog recovers the container a fresh chain fuses end to end.
func TestSupervisedChainKilledMidChain(t *testing.T) {
	for killAt := 0; killAt < 4; killAt++ {
		t.Run(fmt.Sprintf("killBeforeLink%d", killAt), func(t *testing.T) {
			d, err := anception.NewDevice(anception.Options{
				Mode:         anception.ModeAnception,
				RingDepth:    16,
				FusionEnable: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			sup := supervisor.New(d, d.Clock, d.Trace, supervisor.Config{})
			app, err := d.InstallApp(android.AppSpec{Package: "com.fusion.drill"})
			if err != nil {
				t.Fatal(err)
			}
			proc, err := d.Launch(app)
			if err != nil {
				t.Fatal(err)
			}

			content := []byte("chain drill payload")
			fd, err := proc.Open("drill.dat", abi.ORdWr|abi.OCreat, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := proc.Pwrite(fd, content, 0); err != nil {
				t.Fatal(err)
			}
			if err := proc.Close(fd); err != nil {
				t.Fatal(err)
			}

			// One-shot hook: panic the guest just before link killAt
			// executes. The hook runs on the ring's SQ poller, exactly where a
			// real mid-chain crash lands.
			var fired atomic.Bool
			d.Layer.SetChainStep(func(next int) {
				if next == killAt && !fired.Swap(true) {
					d.InjectGuestPanic("fusion drill")
				}
			})

			buf := make([]byte, len(content))
			res := proc.Chain(
				anception.ChainCall{Args: kernel.Args{Nr: abi.SysOpen, Path: "drill.dat", Flags: abi.ORdWr}, FDFrom: -1},
				anception.ChainCall{Args: kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
				anception.ChainCall{Args: kernel.Args{Nr: abi.SysPread64, Buf: buf}, FDFrom: 0},
				anception.ChainCall{Args: kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
			)
			if len(res) != 4 {
				t.Fatalf("chain returned %d results, want 4", len(res))
			}
			if !fired.Load() {
				t.Fatal("chain-step hook never fired")
			}
			for i := 0; i < killAt; i++ {
				if !res[i].Ok() {
					t.Fatalf("link %d (before the kill) failed: %v", i, res[i].Err)
				}
			}
			for i := killAt; i < 4; i++ {
				if !errors.Is(res[i].Err, abi.EHOSTDOWN) {
					t.Fatalf("link %d err = %v, want EHOSTDOWN", i, res[i].Err)
				}
			}

			fs := d.Layer.Stats().Fusion
			if fs.Submitted != fs.Completed+fs.Failed {
				t.Fatalf("accounting identity broken: Submitted=%d Completed=%d Failed=%d",
					fs.Submitted, fs.Completed, fs.Failed)
			}
			if fs.Completed != int64(killAt) || fs.Failed != int64(4-killAt) {
				t.Fatalf("Completed=%d Failed=%d, want %d/%d", fs.Completed, fs.Failed, killAt, 4-killAt)
			}

			if err := sup.RunUntilHealthy(50); err != nil {
				t.Fatalf("watchdog never recovered the container: %v", err)
			}

			// The restarted guest swaps in fresh proxies, dropping the
			// drill hook; a new chain must fuse cleanly end to end.
			buf2 := make([]byte, len(content))
			res2 := proc.Chain(
				anception.ChainCall{Args: kernel.Args{Nr: abi.SysOpen, Path: "drill.dat", Flags: abi.ORdWr}, FDFrom: -1},
				anception.ChainCall{Args: kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
				anception.ChainCall{Args: kernel.Args{Nr: abi.SysPread64, Buf: buf2}, FDFrom: 0},
				anception.ChainCall{Args: kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
			)
			for i, r := range res2 {
				if !r.Ok() {
					t.Fatalf("post-recovery link %d failed: %v", i, r.Err)
				}
			}
			if string(buf2) != string(content) {
				t.Fatalf("post-recovery read = %q, want %q", buf2, content)
			}
			after := d.Layer.Stats().Fusion
			if after.Submitted != after.Completed+after.Failed {
				t.Fatalf("post-recovery accounting identity broken: %+v", after)
			}
		})
	}
}
