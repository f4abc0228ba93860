// Command evaluate regenerates every table and figure of the paper's
// evaluation (Sections V and VI) from the simulation and prints a report
// in the paper's layout. Use -exp to run a single experiment:
//
//	evaluate -exp table1    ASIM microbenchmark latencies (Table I)
//	evaluate -exp fig6      AnTuTu relative scores (Figure 6)
//	evaluate -exp fig7      SunSpider suite times (Figure 7)
//	evaluate -exp sqlite    10,000-row transaction benchmark
//	evaluate -exp study     25-CVE vulnerability study (Section V-B)
//	evaluate -exp surface   syscall attack-surface breakdown (Section V-D)
//	evaluate -exp loc       deprivileged lines of code (Section V-D)
//	evaluate -exp memory    CVM memory overhead (Section VI-C)
//	evaluate -exp profile   ioctl profile of popular apps (Section VI-A)
//	evaluate -exp session   real-application session and launch latency
//	evaluate -exp recovery  supervised fault drills: per-class MTTR
//	evaluate -exp concurrency  sync-vs-ring multi-threaded throughput
//	evaluate -exp bench-json  redirection-cache speedups + concurrency rows -> BENCH_redirection.json
//	evaluate -exp zerocopy  copy vs grant vs grant+ring transfer sweep -> BENCH_redirection.json
//	evaluate -exp binder    sync vs session vs pipelined vs cached binder bridge sweep -> BENCH_redirection.json
//	evaluate -exp network   sockets over the ring + open-loop 100k-client traffic -> BENCH_network.json
//	evaluate -exp autotune  AutoTune fast profile vs hand-tuned knob configs -> BENCH_redirection.json
//	evaluate -exp fusion    fused dependent chains vs independent ring round trips -> BENCH_redirection.json
//	evaluate -exp fleet     sharded CVM fleet scaling sweep -> BENCH_fleet.json
//	evaluate -exp all       every registered experiment, in order (default)
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/attacksurface"
	"anception/internal/exploits"
	"anception/internal/workloads"
)

// experiments is the ordered registry -exp dispatches on. -exp all runs
// every entry in this order, so each registered experiment — including
// every one that folds a section into the BENCH_*.json documents — runs
// exactly once per full pass. Order matters for the report writers:
// bench-json writes the Table-I rows the later pinned-row checks
// (zerocopy, binder, fleet) compare against.
var experiments = []struct {
	name string
	run  func() error
}{
	{"table1", table1},
	{"fig6", fig6},
	{"fig7", fig7},
	{"sqlite", sqlite},
	{"study", study},
	{"surface", surface},
	{"loc", loc},
	{"memory", memory},
	{"profile", profile},
	{"session", session},
	{"recovery", recovery},
	{"concurrency", concurrency},
	{"bench-json", benchJSON},
	{"zerocopy", zerocopy},
	{"binder", binderExp},
	{"network", networkExp},
	{"autotune", autotuneExp},
	{"fusion", fusionExp},
	{"fleet", fleetExp},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: one registered name, or all")
	flag.Parse()
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

func run(exp string) error {
	if exp == "all" {
		for _, e := range experiments {
			if err := e.run(); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Println()
		}
		return nil
	}
	for _, e := range experiments {
		if e.name == exp {
			return e.run()
		}
	}
	return fmt.Errorf("unknown experiment %q", exp)
}

func bootPair() (*anception.Device, *anception.Device, error) {
	native, err := anception.NewDevice(anception.Options{Mode: anception.ModeNative, DisableTrace: true})
	if err != nil {
		return nil, nil, err
	}
	anc, err := anception.NewDevice(anception.Options{Mode: anception.ModeAnception, DisableTrace: true})
	if err != nil {
		return nil, nil, err
	}
	return native, anc, nil
}

func launchBench(d *anception.Device) (*anception.Proc, error) {
	app, err := d.InstallApp(android.AppSpec{Package: "com.evaluate.bench"})
	if err != nil {
		return nil, err
	}
	return d.Launch(app)
}

func measure(d *anception.Device, op func()) time.Duration {
	before := d.Clock.Now()
	op()
	return d.Clock.Now() - before
}

func table1() error {
	fmt.Println("== Table I: ASIM microbenchmark latency ==")
	native, anc, err := bootPair()
	if err != nil {
		return err
	}
	np, err := launchBench(native)
	if err != nil {
		return err
	}
	ap, err := launchBench(anc)
	if err != nil {
		return err
	}

	row := func(name string, nat, anceptionTime time.Duration) {
		fmt.Printf("  %-28s %12v %14v\n", name, nat, anceptionTime)
	}
	fmt.Printf("  %-28s %12s %14s\n", "syscall", "Native", "Anception")

	row("Null call - getpid",
		measure(native, func() { np.Getpid() }),
		measure(anc, func() { ap.Getpid() }))

	page := make([]byte, abi.PageSize)
	prep := func(p *anception.Proc) int {
		fd, err := p.Open("t1.dat", abi.ORdWr|abi.OCreat, 0o600)
		if err != nil {
			panic(err)
		}
		return fd
	}
	nfd, afd := prep(np), prep(ap)
	row("Filesystem - write (4096B)",
		measure(native, func() { _, _ = np.Write(nfd, page) }),
		measure(anc, func() { _, _ = ap.Write(afd, page) }))
	if _, err := np.Lseek(nfd, 0, abi.SeekSet); err != nil {
		return err
	}
	if _, err := ap.Lseek(afd, 0, abi.SeekSet); err != nil {
		return err
	}
	row("Filesystem - read (4096B)",
		measure(native, func() { _, _ = np.Read(nfd, abi.PageSize) }),
		measure(anc, func() { _, _ = ap.Read(afd, abi.PageSize) }))

	nb, err := np.OpenBinder()
	if err != nil {
		return err
	}
	ab, err := ap.OpenBinder()
	if err != nil {
		return err
	}
	for _, size := range []int{128, 256} {
		payload := make([]byte, size)
		row(fmt.Sprintf("Binder IPC - ioctl (%dB)", size),
			measure(native, func() { _, _ = np.BinderCall(nb, "location", android.CodeGetLocation, payload) }),
			measure(anc, func() { _, _ = ap.BinderCall(ab, "location", android.CodeGetLocation, payload) }))
	}
	return nil
}

func fig6() error {
	fmt.Println("== Figure 6: AnTuTu relative scores (native = 1.0) ==")
	for _, w := range []workloads.Workload{workloads.AnTuTuDatabaseIO(), workloads.AnTuTu2D(), workloads.AnTuTu3D()} {
		c, err := workloads.Compare(w)
		if err != nil {
			return err
		}
		fmt.Printf("  %-12s native=%-14v anception=%-14v relative=%.3f\n",
			w.Name, c.Native.Simulated, c.Anception.Simulated, c.RelativeScore())
	}
	return nil
}

func fig7() error {
	fmt.Println("== Figure 7: SunSpider execution time (ms) ==")
	for _, name := range workloads.SunSpiderSuiteNames() {
		w, _ := workloads.SunSpiderWorkload(name)
		c, err := workloads.Compare(w)
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s native=%6.1f ms  anception=%6.1f ms\n",
			name,
			float64(c.Native.Simulated)/float64(time.Millisecond),
			float64(c.Anception.Simulated)/float64(time.Millisecond))
	}
	return nil
}

func sqlite() error {
	fmt.Println("== SQLite macrobenchmark: 10,000 rows in one transaction ==")
	c, err := workloads.Compare(workloads.SQLiteRowBench())
	if err != nil {
		return err
	}
	fmt.Printf("  per-row: native=%v anception=%v (paper: 86.55 us vs 86.67 us)\n",
		c.Native.Simulated/time.Duration(c.Native.Ops),
		c.Anception.Simulated/time.Duration(c.Anception.Ops))
	return nil
}

func study() error {
	fmt.Println("== Section V-B: 25-vulnerability study ==")
	for _, mode := range []anception.Mode{anception.ModeNative, anception.ModeAnception, anception.ModeClassicalVM} {
		results, err := exploits.RunStudy(anception.Options{Mode: mode})
		if err != nil {
			return err
		}
		s := exploits.Summarize(results)
		fmt.Printf("  %-13s failed=%2d  cvm-root=%2d  host-root=%2d  detectable=%d\n",
			mode, s.Failed, s.CVMRoot, s.HostRoot, s.Detectable)
		if mode == anception.ModeAnception {
			for _, r := range results {
				mark := " "
				if r.Detected {
					mark = "D"
				}
				fmt.Printf("    %-16s %-20s %-20s %s\n", r.Exploit.ID, r.Exploit.Name, r.Outcome, mark)
			}
		}
	}
	return nil
}

func surface() error {
	fmt.Println("== Section V-D: attack surface and TCB ==")
	fmt.Print(attacksurface.Report())
	return nil
}

func loc() error {
	fmt.Println("== Section V-D: deprivileged lines of code ==")
	f := attacksurface.Framework()
	fmt.Printf("  framework: %d total, %d UI (host), %d deprivileged (%.1f%%)\n",
		f.TotalLines, f.UILines, f.DeprivilegedLines, 100*f.DeprivilegedFrac)
	for _, s := range attacksurface.KernelInventory() {
		where := "host"
		if s.Deprivliged {
			where = "CVM"
		}
		fmt.Printf("  kernel %-32s %8d lines -> %s\n", s.Path, s.Lines, where)
	}
	fmt.Printf("  kernel total deprivileged: %d lines\n", attacksurface.KernelDeprivilegedLines())
	return nil
}

func memory() error {
	fmt.Println("== Section VI-C: CVM memory overhead ==")
	d, err := anception.NewDevice(anception.Options{Mode: anception.ModeAnception, DisableTrace: true})
	if err != nil {
		return err
	}
	for i := 0; i < 23; i++ {
		app, err := d.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.active%02d", i)})
		if err != nil {
			return err
		}
		if _, err := d.Launch(app); err != nil {
			return err
		}
	}
	m := d.CVMMemory()
	fmt.Printf("  assigned=%d KB  available=%d KB  active=%d KB  free=%d KB (%.0f%%)\n",
		m.TotalKB, m.AvailableKB, m.ActiveKB, m.FreeKB,
		100*float64(m.FreeKB)/float64(m.AvailableKB))
	fmt.Println("  (paper: 25460 KB +/- 524 active of 49228 KB available; ~51% free)")
	return nil
}

func session() error {
	fmt.Println("== Real-application session and launch latency ==")
	c, err := workloads.Compare(workloads.InteractiveSession())
	if err != nil {
		return err
	}
	fmt.Printf("  session: native=%v anception=%v (slowdown %.3f)\n",
		c.Native.Simulated, c.Anception.Simulated, c.Slowdown())
	nat, err := workloads.MeasureLaunch(anception.ModeNative)
	if err != nil {
		return err
	}
	anc, err := workloads.MeasureLaunch(anception.ModeAnception)
	if err != nil {
		return err
	}
	fmt.Printf("  cold launch: native=%v anception=%v (overhead %v)\n",
		nat.Latency, anc.Latency, anc.Latency-nat.Latency)
	return nil
}

func profile() error {
	fmt.Println("== Section VI-A: ioctl profile of popular apps ==")
	stats, err := workloads.RunProfile(anception.ModeAnception)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(stats.PerAppIoctlFrac))
	for name := range stats.PerAppIoctlFrac {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Printf("  %-10s ioctl fraction = %.3f\n", name, stats.PerAppIoctlFrac[name])
	}
	fmt.Printf("  average ioctl fraction = %.3f (paper: 0.737)\n", stats.AvgIoctlFrac)
	fmt.Printf("  UI share of ioctls     = %.3f (paper: 0.8135)\n", stats.UIIoctlFrac)
	return nil
}
