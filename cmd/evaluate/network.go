package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/netstack"
	"anception/internal/workloads"
)

// The network experiment measures the redirected network fast path
// (DESIGN.md §14) and writes BENCH_network.json: per-op 128 B echo cost
// on the synchronous channel vs the sockop ring, 64 KiB sends chunk-
// copied vs grant-backed, and the open-loop echo-server workload driven
// by a modeled population of ~100k concurrent simulated clients. The
// synchronous per-op rows are the pinned uncached baseline — the fast
// path is opt-in and must not perturb the path it bypasses.

const (
	// netEchoIters/netConnIters size the per-op measurement loops.
	netEchoIters = 300
	netConnIters = 64
	// netEchoBytes rides an inline ring slot; netBulkBytes is the
	// grant-floor transfer size.
	netEchoBytes = 128
	netBulkBytes = 64 << 10
	// netGrantThreshold makes the 64 KiB send grant-eligible on the
	// grant configuration.
	netGrantThreshold = 4 << 10
	// netRingThreads pipelines the ring configuration, matching the
	// zerocopy and concurrency experiments: concurrent submitters keep
	// the SQ deep so doorbells and proxy wakeups amortize.
	netRingThreads = 8
	// netEchoAddr is the simulated remote the echo clients talk to.
	netEchoAddr = "echo.host:80"
)

// netConfig is one transport configuration of the sweep.
type netConfig struct {
	name    string
	opts    anception.Options
	threads int
}

func netSyncConfig() netConfig {
	return netConfig{
		name:    "sync-uncached",
		opts:    anception.Options{Mode: anception.ModeAnception, DisableTrace: true, CallDeadline: time.Hour},
		threads: 1,
	}
}

func netRingConfig() netConfig {
	return netConfig{
		name: "ring",
		opts: anception.Options{
			Mode: anception.ModeAnception, DisableTrace: true, CallDeadline: time.Hour,
			RingDepth: 64, RingReapBatch: 64,
		},
		threads: netRingThreads,
	}
}

// netGrantConfig is the full fast path the bulk floor measures: sends
// above the threshold move by grant reference over the pipelined ring
// (the configuration the tentpole ships), against the chunk-copied
// synchronous baseline.
func netGrantConfig() netConfig {
	cfg := netRingConfig()
	cfg.name = "grant-ring"
	cfg.opts.GrantThreshold = netGrantThreshold
	return cfg
}

// netNativeConfig is the un-redirected baseline: the same echo op on
// the native kernel, which pays only syscall cost plus the modeled wire
// cost every transport shares.
func netNativeConfig() netConfig {
	return netConfig{
		name:    "native",
		opts:    anception.Options{Mode: anception.ModeNative, DisableTrace: true},
		threads: 1,
	}
}

// netEchoMeasure boots one configuration and measures send+recv echo
// round trips of size bytes against a registered remote, aggregated
// across cfg.threads pipelined clients on the shared sim clock.
func netEchoMeasure(size int, cfg netConfig) (float64, error) {
	d, err := anception.NewDevice(cfg.opts)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	// The remote echoes the request for the 128 B rows and acks bulk
	// sends with a short reply, so the measured op is always one
	// outbound payload plus one small completion recv.
	d.RegisterRemote(netEchoAddr, func(req []byte) []byte {
		if len(req) > netEchoBytes {
			return []byte("ok")
		}
		return req
	})

	// The bulk rows measure the outbound leg: the reply is a short ack,
	// and the recv asks for exactly that, so neither configuration pays
	// for a 64 KiB receive buffer it will not fill.
	respLen := size
	if size > netEchoBytes {
		respLen = 2
	}
	type worker struct {
		proc    *anception.Proc
		fd      int
		payload []byte
	}
	workers := make([]worker, cfg.threads)
	for i := range workers {
		app, err := d.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.net%02d", i)})
		if err != nil {
			return 0, err
		}
		proc, err := d.Launch(app)
		if err != nil {
			return 0, err
		}
		fd, err := proc.Socket(netstack.AFInet, netstack.SockStream, 0)
		if err != nil {
			return 0, err
		}
		if err := proc.Connect(fd, netEchoAddr); err != nil {
			return 0, err
		}
		payload := make([]byte, size)
		// Warm the path once so proxy enrollment stays out of the loop.
		if _, err := proc.Send(fd, payload); err != nil {
			return 0, err
		}
		if _, err := proc.Recv(fd, respLen); err != nil {
			return 0, err
		}
		workers[i] = worker{proc, fd, payload}
	}

	start := d.Clock.Now()
	errCh := make(chan error, cfg.threads)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			for n := 0; n < netEchoIters; n++ {
				if _, err := w.proc.Send(w.fd, w.payload); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				if _, err := w.proc.Recv(w.fd, respLen); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	ops := cfg.threads * netEchoIters
	return float64(d.Clock.Now()-start) / float64(ops) / 1e3, nil
}

// netConnectMeasure measures socket+connect+close against the remote on
// the synchronous channel: the uncached connect baseline, dominated by
// the modeled network RTT.
func netConnectMeasure(cfg netConfig) (float64, error) {
	d, err := anception.NewDevice(cfg.opts)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	d.RegisterRemote(netEchoAddr, func(req []byte) []byte { return req })
	app, err := d.InstallApp(android.AppSpec{Package: "com.net.conn"})
	if err != nil {
		return 0, err
	}
	proc, err := d.Launch(app)
	if err != nil {
		return 0, err
	}
	start := d.Clock.Now()
	for n := 0; n < netConnIters; n++ {
		fd, err := proc.Socket(netstack.AFInet, netstack.SockStream, 0)
		if err != nil {
			return 0, err
		}
		if err := proc.Connect(fd, netEchoAddr); err != nil {
			return 0, err
		}
		if err := proc.Close(fd); err != nil {
			return 0, err
		}
	}
	return float64(d.Clock.Now()-start) / netConnIters / 1e3, nil
}

// netPinnedRows are the synchronous uncached baseline rows (simulated
// microseconds): the ring and grant paths are opt-in, so these committed
// values must not move when the fast path evolves.
var netPinnedRows = map[string]float64{
	"echo128-sync-uncached": 566.576,
	"connect-sync-uncached": 38842.460,
	"send64k-sync-uncached": 2362.954,
}

// netCheckPinned verifies the freshly measured sync rows still carry
// their committed values.
func netCheckPinned(rows []benchRow) error {
	for _, row := range rows {
		want, pinned := netPinnedRows[row.Name]
		if !pinned {
			continue
		}
		if math.Abs(row.SimUsPerOp-want) > 0.01 {
			return fmt.Errorf("pinned sync row %s moved: %.3f sim-us (want %.3f)", row.Name, row.SimUsPerOp, want)
		}
	}
	return nil
}

// netWorkloadConfigs are the transports the traffic workload compares.
func netWorkloadConfigs() []struct {
	name string
	mode anception.Mode
	opts anception.Options
} {
	return []struct {
		name string
		mode anception.Mode
		opts anception.Options
	}{
		{"ring", anception.ModeAnception, anception.Options{
			RingDepth: 64, GrantThreshold: 16 << 10,
		}},
		{"sync", anception.ModeAnception, anception.Options{}},
		{"native", anception.ModeNative, anception.Options{}},
	}
}

func netWorkloadRowFrom(name string, st workloads.NetServerStats) netWorkloadRow {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	row := netWorkloadRow{
		Transport:      name,
		Sessions:       st.Sessions,
		Clients:        st.Clients,
		Lanes:          st.Lanes,
		P50SimUs:       us(st.P50),
		P99SimUs:       us(st.P99),
		P999SimUs:      us(st.P999),
		MaxSimUs:       us(st.Max),
		OpsPerSimSec:   st.OpsPerSimSec,
		ThinkTimeMs:    float64(st.ThinkTime) / 1e6,
		AvgAcceptBatch: st.AvgAcceptBatch,
	}
	if st.ServerApps > 1 {
		row.ServerApps = st.ServerApps
		for _, per := range st.PerApp {
			row.PerApp = append(row.PerApp, netAppRow{
				Package:  per.Package,
				Sessions: per.Sessions,
				P50SimUs: us(per.P50),
				P99SimUs: us(per.P99),
			})
		}
	}
	return row
}

// networkFloors enforces the acceptance criteria: ring sockets at least
// 2x the synchronous channel (per-op and under the open-loop workload)
// and the grant-backed 64 KiB send at least 4x the chunk-copied one.
func networkFloors(report *networkReport) error {
	if report.EchoSpeedup < 2 {
		return fmt.Errorf("ring echo speedup %.2fx below the 2x acceptance floor", report.EchoSpeedup)
	}
	if report.WorkloadSpeedup < 2 {
		return fmt.Errorf("ring workload speedup %.2fx below the 2x acceptance floor", report.WorkloadSpeedup)
	}
	if report.GrantSendSpeedup < 4 {
		return fmt.Errorf("grant 64k send overhead speedup %.2fx below the 4x acceptance floor", report.GrantSendSpeedup)
	}
	return nil
}

// networkExp is the -exp network experiment.
func networkExp() error {
	fmt.Println("== Network fast path: sockets over the ring, grant-backed sends, open-loop traffic ==")
	report := networkReport{Iterations: netEchoIters}

	syncEcho, err := netEchoMeasure(netEchoBytes, netSyncConfig())
	if err != nil {
		return fmt.Errorf("echo sync: %w", err)
	}
	ringEcho, err := netEchoMeasure(netEchoBytes, netRingConfig())
	if err != nil {
		return fmt.Errorf("echo ring: %w", err)
	}
	connect, err := netConnectMeasure(netSyncConfig())
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	copySend, err := netEchoMeasure(netBulkBytes, netSyncConfig())
	if err != nil {
		return fmt.Errorf("send64k copy: %w", err)
	}
	grantSend, err := netEchoMeasure(netBulkBytes, netGrantConfig())
	if err != nil {
		return fmt.Errorf("send64k grant: %w", err)
	}
	nativeSend, err := netEchoMeasure(netBulkBytes, netNativeConfig())
	if err != nil {
		return fmt.Errorf("send64k native: %w", err)
	}
	report.Rows = []benchRow{
		{Name: "echo128-sync-uncached", SimUsPerOp: syncEcho},
		{Name: "echo128-ring", SimUsPerOp: ringEcho},
		{Name: "connect-sync-uncached", SimUsPerOp: connect},
		{Name: "send64k-sync-uncached", SimUsPerOp: copySend},
		{Name: "send64k-grant-ring", SimUsPerOp: grantSend},
		{Name: "send64k-native", SimUsPerOp: nativeSend},
	}
	for _, r := range report.Rows {
		fmt.Printf("  %-24s %12.3f sim-us/op\n", r.Name, r.SimUsPerOp)
	}
	report.EchoSpeedup = syncEcho / ringEcho
	// The 64 KiB wire cost is physics every transport pays (the native
	// row is almost entirely that), so the bulk floor gates what the PR
	// actually changes: the redirection overhead above the native cost.
	if grantSend > nativeSend {
		report.GrantSendSpeedup = (copySend - nativeSend) / (grantSend - nativeSend)
	}
	if err := netCheckPinned(report.Rows); err != nil {
		return err
	}

	var ringOps, syncOps float64
	for _, cfg := range netWorkloadConfigs() {
		st, err := workloads.RunNetServer(cfg.mode, cfg.opts, workloads.NetServerConfig{})
		if err != nil {
			return fmt.Errorf("workload %s: %w", cfg.name, err)
		}
		fmt.Printf("  %-8s %s\n", cfg.name, st)
		report.Workload = append(report.Workload, netWorkloadRowFrom(cfg.name, st))
		switch cfg.name {
		case "ring":
			ringOps = st.OpsPerSimSec
		case "sync":
			syncOps = st.OpsPerSimSec
		}
	}
	if syncOps > 0 {
		report.WorkloadSpeedup = ringOps / syncOps
	}

	// Million-client, multi-tenant row: four server apps share the one
	// sockop ring under a modeled 1M-client population with the mixed
	// request-size distribution. Per-app percentiles ride along so ring
	// sharing shows up as fairness, not just aggregate throughput.
	million, err := workloads.RunNetServer(anception.ModeAnception, anception.Options{
		RingDepth: 64, GrantThreshold: 16 << 10,
	}, workloads.NetServerConfig{
		Clients: 1_000_000, ServerApps: 4, MixedSizes: true,
	})
	if err != nil {
		return fmt.Errorf("workload ring-4apps-1m: %w", err)
	}
	fmt.Printf("  %-8s %s\n", "ring-4x", million)
	for _, per := range million.PerApp {
		fmt.Printf("           %-22s %6d sessions  p50=%v p99=%v\n", per.Package, per.Sessions, per.P50, per.P99)
	}
	report.Workload = append(report.Workload, netWorkloadRowFrom("ring-4apps-1m", million))
	for _, per := range million.PerApp {
		if per.Sessions == 0 || per.P50 <= 0 {
			return fmt.Errorf("multi-app row: server %s saw no traffic", per.Package)
		}
	}
	fmt.Printf("  speedups: echo %.2fx, workload %.2fx, grant 64k send overhead %.2fx\n",
		report.EchoSpeedup, report.WorkloadSpeedup, report.GrantSendSpeedup)

	if err := networkFloors(&report); err != nil {
		return err
	}
	if err := writeNetworkReport(&report); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", networkJSONFile)
	return nil
}
