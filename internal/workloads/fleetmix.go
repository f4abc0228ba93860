package workloads

import (
	"fmt"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/netstack"
)

// Mixed many-app fleet workload (DESIGN.md §16): every app runs the
// same blend of redirected traffic — page reads/writes (cache + sync
// paths), bulk 64 KiB writes (grant path), small socket echoes (sockop
// ring), and binder transactions (session path) — so each shard's
// entire fast-path surface warms. Shards are independent service
// domains on private sim clocks; fleet elapsed time is the slowest
// shard's clock, so throughput scales with the shard count as long as
// placement keeps the population balanced — exactly the claim
// `evaluate -exp fleet` sweeps 1→16 CVMs.

// FleetMixConfig tunes the fleet workload. Zero values take defaults.
type FleetMixConfig struct {
	// FleetSize is the CVM shard count (default 1).
	FleetSize int
	// Apps is the enrolled app population (default 32 — divides evenly
	// across every swept fleet size).
	Apps int
	// OpsPerApp is mixed operations per app (default 64).
	OpsPerApp int
	// WarmupOps is the unmeasured per-app warm-up (default 32): it runs
	// the same blend before measurement starts so caches, binder
	// sessions and the fusion detector are warm and the sweep measures
	// steady state. Negative disables.
	WarmupOps int
	// Opts is the per-shard device template. Zero boots the AutoTune
	// fast profile with an hour fault-detector deadline.
	Opts anception.Options
}

func (c *FleetMixConfig) applyDefaults() {
	if c.FleetSize <= 0 {
		c.FleetSize = 1
	}
	if c.Apps <= 0 {
		c.Apps = 32
	}
	if c.OpsPerApp <= 0 {
		c.OpsPerApp = 64
	}
	if c.WarmupOps == 0 {
		c.WarmupOps = 32
	}
	if c.WarmupOps < 0 {
		c.WarmupOps = 0
	}
	var zero anception.Options
	if c.Opts == zero {
		c.Opts = anception.Options{AutoTune: true, CallDeadline: time.Hour}
	}
	c.Opts.Mode = anception.ModeAnception
	c.Opts.DisableTrace = true
	c.Opts.FleetSize = c.FleetSize
}

// FleetMixStats is one sweep point's outcome.
type FleetMixStats struct {
	FleetSize int
	Apps      int
	Ops       int
	// Elapsed is the slowest shard's measured sim time; PerShardElapsed
	// and PerShardApps break it down.
	Elapsed         time.Duration
	PerShardElapsed []time.Duration
	PerShardApps    []int
	OpsPerSimSec    float64
}

// fleetEchoAddr is the simulated remote every shard's CVM stack can
// reach.
const fleetEchoAddr = "echo.fleet:80"

// fleetMixApp is one enrolled app's warm handles.
type fleetMixApp struct {
	app  *anception.FleetApp
	fd   int
	sock int
	bfd  int
}

// fleetMixOps is the op blend period: of every 8 ops, 4 are page
// read/write pairs, 2 are 128 B socket echoes, 1 is a 64 KiB bulk
// write, 1 is a binder transaction.
const fleetMixPeriod = 8

// setupFleetMix boots the fleet, registers the echo remote on every
// shard, installs the app population, and warms each app's handles
// (open file, connected socket, binder fd) so enrollment cost stays out
// of the measured phase.
func setupFleetMix(cfg *FleetMixConfig) (*anception.Fleet, []*fleetMixApp, error) {
	fleet, err := anception.NewFleet(cfg.Opts)
	if err != nil {
		return nil, nil, err
	}
	for _, sh := range fleet.Shards() {
		sh.Dev.RegisterRemote(fleetEchoAddr, func(req []byte) []byte {
			if len(req) > 256 {
				return []byte("ok")
			}
			return req
		})
	}
	apps := make([]*fleetMixApp, 0, cfg.Apps)
	for i := 0; i < cfg.Apps; i++ {
		fa, err := fleet.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.fleet.mix%03d", i)})
		if err != nil {
			fleet.Close()
			return nil, nil, err
		}
		ma, err := warmFleetMixApp(fa)
		if err != nil {
			fleet.Close()
			return nil, nil, err
		}
		apps = append(apps, ma)
	}
	return fleet, apps, nil
}

func warmFleetMixApp(fa *anception.FleetApp) (*fleetMixApp, error) {
	p := fa.Proc()
	fd, err := p.Open("mix.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		return nil, err
	}
	sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		return nil, err
	}
	if err := p.Connect(sock, fleetEchoAddr); err != nil {
		return nil, err
	}
	bfd, err := p.OpenBinder()
	if err != nil {
		return nil, err
	}
	return &fleetMixApp{app: fa, fd: fd, sock: sock, bfd: bfd}, nil
}

// runFleetMixOp runs operation index i of the blend for one app.
func runFleetMixOp(ma *fleetMixApp, i int, page, bulk, echo []byte) error {
	p := ma.app.Proc()
	switch i % fleetMixPeriod {
	case 0, 2, 4, 6:
		if _, err := p.Pwrite(ma.fd, page, 0); err != nil {
			return fmt.Errorf("pwrite: %w", err)
		}
		if _, err := p.Pread(ma.fd, abi.PageSize, 0); err != nil {
			return fmt.Errorf("pread: %w", err)
		}
	case 1, 5:
		if _, err := p.Send(ma.sock, echo); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		if _, err := p.Recv(ma.sock, len(echo)); err != nil {
			return fmt.Errorf("recv: %w", err)
		}
	case 3:
		if _, err := p.Pwrite(ma.fd, bulk, 0); err != nil {
			return fmt.Errorf("bulk pwrite: %w", err)
		}
	default: // 7
		if _, err := p.BinderCall(ma.bfd, "location", android.CodeGetLocation, echo); err != nil {
			return fmt.Errorf("binder: %w", err)
		}
	}
	return nil
}

// runFleetMixApp drives one app through ops mixed operations.
func runFleetMixApp(ma *fleetMixApp, ops int) error {
	page := make([]byte, abi.PageSize)
	bulk := make([]byte, 64<<10)
	echo := make([]byte, 128)
	for i := 0; i < ops; i++ {
		if err := runFleetMixOp(ma, i, page, bulk, echo); err != nil {
			return err
		}
	}
	return nil
}

// RunFleetMix runs the mixed many-app workload on a fleet of the given
// size and reports throughput. Each shard's apps execute against that
// shard's private clock; elapsed time is the slowest shard's measured
// span.
func RunFleetMix(cfg FleetMixConfig) (FleetMixStats, error) {
	cfg.applyDefaults()
	fleet, apps, err := setupFleetMix(&cfg)
	if err != nil {
		return FleetMixStats{}, err
	}
	defer fleet.Close()

	// Group apps per shard, snapshot each shard's clock, run, measure.
	perShard := make([][]*fleetMixApp, fleet.Size())
	for _, ma := range apps {
		id := ma.app.Shard()
		perShard[id] = append(perShard[id], ma)
	}
	st := FleetMixStats{
		FleetSize:       fleet.Size(),
		Apps:            len(apps),
		Ops:             len(apps) * cfg.OpsPerApp,
		PerShardElapsed: make([]time.Duration, fleet.Size()),
		PerShardApps:    make([]int, fleet.Size()),
	}
	// Unmeasured warm-up: bring each shard's fast paths to steady state.
	for _, ma := range apps {
		if err := runFleetMixApp(ma, cfg.WarmupOps); err != nil {
			return FleetMixStats{}, fmt.Errorf("warmup %s: %w", ma.app.Pkg, err)
		}
	}
	for id, shardApps := range perShard {
		sh := fleet.Shard(id)
		start := sh.Dev.Clock.Now()
		for _, ma := range shardApps {
			if err := runFleetMixApp(ma, cfg.OpsPerApp); err != nil {
				return FleetMixStats{}, fmt.Errorf("shard %d app %s: %w", id, ma.app.Pkg, err)
			}
		}
		st.PerShardApps[id] = len(shardApps)
		st.PerShardElapsed[id] = sh.Dev.Clock.Now() - start
		if st.PerShardElapsed[id] > st.Elapsed {
			st.Elapsed = st.PerShardElapsed[id]
		}
	}
	if st.Elapsed > 0 {
		st.OpsPerSimSec = float64(st.Ops) / st.Elapsed.Seconds()
	}
	return st, nil
}

// BlastRadiusStats is the compromised-shard drill outcome.
type BlastRadiusStats struct {
	FleetSize int
	Apps      int
	BadShard  int
	// DegradedApps counts apps that saw failures during the outage;
	// DegradedOffShard counts the subset NOT resident on the bad shard
	// (must be zero — that is the blast-radius claim).
	DegradedApps     int
	DegradedOffShard int
	// SiblingCostDriftMax is the worst relative per-op cost drift on
	// healthy-shard apps between the steady-state reference run and the
	// outage run (0.01 = 1%).
	SiblingCostDriftMax float64
	// Recovered reports the fleet came back fully healthy and every app
	// (bad shard included) completed a clean post-recovery run.
	Recovered bool
	// MTTR is the bad shard's recovery time; Restarts/Restores its
	// recovery actions.
	MTTR     time.Duration
	Restarts int
	Restores int
}

// measureAppOps runs ops operations for one app and returns the
// per-op sim cost on its shard's clock, plus the failure count when
// tolerant.
func measureAppOps(fleet *anception.Fleet, ma *fleetMixApp, ops int, tolerant bool) (time.Duration, int) {
	sh := fleet.Shard(ma.app.Shard())
	page := make([]byte, abi.PageSize)
	bulk := make([]byte, 64<<10)
	echo := make([]byte, 128)
	start := sh.Dev.Clock.Now()
	failures := 0
	for i := 0; i < ops; i++ {
		if err := runFleetMixOp(ma, i, page, bulk, echo); err != nil {
			if !tolerant {
				failures = 1
				break
			}
			failures++
		}
	}
	elapsed := sh.Dev.Clock.Now() - start
	return elapsed / time.Duration(ops), failures
}

// RunBlastRadiusDrill compromises one shard of a warm fleet — result
// tampering followed by a guest kernel panic — and proves the blast
// radius is that shard alone: only its apps degrade, sibling apps keep
// their exact per-op costs (independent clocks, untouched warm state),
// and the shard's own watchdog recovers it while siblings never
// restart.
func RunBlastRadiusDrill(cfg FleetMixConfig) (BlastRadiusStats, error) {
	// The drill pins its fast paths explicitly instead of using the
	// AutoTune profile: this exact configuration (no fusion, the default
	// reap batch) is what the committed sibling-drift figure in
	// BENCH_fleet.json was measured on, so changing it would move that
	// figure.
	var zero anception.Options
	if cfg.Opts == zero {
		cfg.Opts = anception.Options{
			RedirCache: true, RingDepth: 64,
			GrantThreshold: 16 << 10,
			BinderSessions: true, BinderReplyCache: true,
			CallDeadline: time.Hour,
		}
	}
	cfg.applyDefaults()
	if cfg.FleetSize < 2 {
		cfg.FleetSize = 4
		cfg.Opts.FleetSize = cfg.FleetSize
	}
	fleet, apps, err := setupFleetMix(&cfg)
	if err != nil {
		return BlastRadiusStats{}, err
	}
	defer fleet.Close()
	st := BlastRadiusStats{FleetSize: fleet.Size(), Apps: len(apps), BadShard: 0}

	// Warm-up until caches and sessions are warm, then a discarded
	// measurement pass (absorbs any residual drift), then the
	// steady-state reference run per app.
	for _, ma := range apps {
		if err := runFleetMixApp(ma, cfg.WarmupOps+cfg.OpsPerApp); err != nil {
			return st, fmt.Errorf("warmup %s: %w", ma.app.Pkg, err)
		}
	}
	ref := make(map[string]time.Duration, len(apps))
	for _, ma := range apps {
		measureAppOps(fleet, ma, cfg.OpsPerApp, false)
		cost, _ := measureAppOps(fleet, ma, cfg.OpsPerApp, false)
		ref[ma.app.Pkg] = cost
	}

	// Compromise shard 0: tampered results, then a guest kernel panic.
	bad := fleet.Shard(st.BadShard)
	bad.Dev.Layer.SetResultTampering(func(b []byte) []byte {
		for i := range b {
			b[i] ^= 0xff
		}
		return b
	})
	bad.Dev.InjectGuestPanic("compromised shard drill")

	// Outage run: tolerant, per app.
	for _, ma := range apps {
		onBad := ma.app.Shard() == st.BadShard
		cost, failures := measureAppOps(fleet, ma, cfg.OpsPerApp, true)
		if failures > 0 {
			st.DegradedApps++
			if !onBad {
				st.DegradedOffShard++
			}
			continue
		}
		if !onBad {
			drift := float64(cost-ref[ma.app.Pkg]) / float64(ref[ma.app.Pkg])
			if drift < 0 {
				drift = -drift
			}
			if drift > st.SiblingCostDriftMax {
				st.SiblingCostDriftMax = drift
			}
		}
	}

	// Stop tampering (the drill's compromise dies with the guest) and
	// let the per-shard watchdogs recover the fleet.
	bad.Dev.Layer.SetResultTampering(nil)
	if err := fleet.Group().RunUntilAllHealthy(400); err != nil {
		return st, fmt.Errorf("recovery: %w", err)
	}
	sup := bad.Sup.Stats()
	st.MTTR = sup.LastMTTR
	st.Restarts = sup.Restarts
	st.Restores = sup.Restores

	// Post-recovery: every app — bad shard included — runs clean.
	clean := true
	for _, ma := range apps {
		// Re-warm handles on the bad shard: its CVM restart invalidated
		// container-side descriptors and dropped the fresh guest's
		// scripted remote registration.
		if ma.app.Shard() == st.BadShard {
			bad.Dev.RegisterRemote(fleetEchoAddr, func(req []byte) []byte {
				if len(req) > 256 {
					return []byte("ok")
				}
				return req
			})
			fresh, err := warmFleetMixApp(ma.app)
			if err != nil {
				clean = false
				continue
			}
			*ma = *fresh
		}
		if _, failures := measureAppOps(fleet, ma, cfg.OpsPerApp, true); failures > 0 {
			clean = false
		}
	}
	st.Recovered = clean && fleet.Group().Healthy()
	return st, nil
}
