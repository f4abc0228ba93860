package main

import (
	"fmt"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/workloads"
)

// fleetJSONFile is where -exp fleet writes the CVM-fleet scaling report.
const fleetJSONFile = "BENCH_fleet.json"

// fleetSweepSizes is the 1→16 CVM throughput sweep.
var fleetSweepSizes = []int{1, 2, 4, 8, 16}

// fleetSweepRow is one sweep point of the mixed many-app workload.
type fleetSweepRow struct {
	FleetSize    int     `json:"fleet_size"`
	Apps         int     `json:"apps"`
	Ops          int     `json:"ops"`
	ElapsedMs    float64 `json:"elapsed_ms"`
	OpsPerSimSec float64 `json:"ops_per_sim_s"`
	// Speedup is against the 1-CVM row; Efficiency = Speedup/FleetSize
	// (1.0 is perfectly linear scaling).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// fleetBlastRow is the compromised-shard drill outcome.
type fleetBlastRow struct {
	FleetSize        int     `json:"fleet_size"`
	Apps             int     `json:"apps"`
	BadShard         int     `json:"bad_shard"`
	DegradedApps     int     `json:"degraded_apps"`
	DegradedOffShard int     `json:"degraded_off_shard"`
	SiblingDriftPct  float64 `json:"sibling_drift_pct"`
	Recovered        bool    `json:"recovered"`
	MTTRUs           float64 `json:"mttr_sim_us"`
	Restarts         int     `json:"restarts"`
	Restores         int     `json:"restores"`
}

// fleetMigrationRow is the live-migration demo outcome.
type fleetMigrationRow struct {
	Migrations  int     `json:"migrations"`
	CostSimUs   float64 `json:"cost_sim_us_per_migration"`
	DataOK      bool    `json:"data_survives"`
	Rebalanced  int     `json:"rebalance_moves"`
	Evacuated   int     `json:"evacuate_moves"`
	ServeAfter  bool    `json:"serves_after_move"`
	SourceDrain int     `json:"source_epoch_advances"`
}

// fleetReport is the -exp fleet output document.
type fleetReport struct {
	Sweep []fleetSweepRow `json:"sweep"`
	// LinearEfficiency8 is the 8-CVM efficiency the CI floor gates on
	// (acceptance: >= 0.8, i.e. 8 CVMs >= 6.4x one CVM).
	LinearEfficiency8 float64           `json:"linear_efficiency_8"`
	BlastRadius       fleetBlastRow     `json:"blast_radius"`
	Migration         fleetMigrationRow `json:"migration"`
	// PinnedOK records the Table I guard: a 1-CVM fleet shard on the
	// Paper profile reproduces the pinned paper rows byte-for-byte.
	PinnedOK bool `json:"pinned_table1_ok"`
}

// fleetExp is the -exp fleet experiment: the 1→16 CVM scaling sweep,
// the compromised-shard blast-radius drill, the live-migration demo,
// and the pinned Table I guard.
func fleetExp() error {
	fmt.Println("== CVM fleet: scheduled shards, near-linear scaling, one-shard blast radius ==")
	var report fleetReport

	// Sweep: the same 32-app mixed workload divided over 1..16 CVMs.
	fmt.Println("  scaling sweep (32 apps, mixed page/bulk/socket/binder ops):")
	var base float64
	for _, size := range fleetSweepSizes {
		st, err := workloads.RunFleetMix(workloads.FleetMixConfig{FleetSize: size})
		if err != nil {
			return fmt.Errorf("fleet sweep %d: %w", size, err)
		}
		row := fleetSweepRow{
			FleetSize:    st.FleetSize,
			Apps:         st.Apps,
			Ops:          st.Ops,
			ElapsedMs:    float64(st.Elapsed) / 1e6,
			OpsPerSimSec: st.OpsPerSimSec,
		}
		if size == 1 {
			base = st.OpsPerSimSec
		}
		if base > 0 {
			row.Speedup = st.OpsPerSimSec / base
			row.Efficiency = row.Speedup / float64(size)
		}
		report.Sweep = append(report.Sweep, row)
		fmt.Printf("    %2d CVM(s): %8.0f ops/sim-s  elapsed %8.2f ms  speedup %5.2fx  efficiency %.2f\n",
			size, row.OpsPerSimSec, row.ElapsedMs, row.Speedup, row.Efficiency)
		if size == 8 {
			report.LinearEfficiency8 = row.Efficiency
		}
	}

	// Blast radius: compromise one shard of a warm 4-CVM fleet.
	blast, err := workloads.RunBlastRadiusDrill(workloads.FleetMixConfig{FleetSize: 4})
	if err != nil {
		return fmt.Errorf("blast radius drill: %w", err)
	}
	report.BlastRadius = fleetBlastRow{
		FleetSize:        blast.FleetSize,
		Apps:             blast.Apps,
		BadShard:         blast.BadShard,
		DegradedApps:     blast.DegradedApps,
		DegradedOffShard: blast.DegradedOffShard,
		SiblingDriftPct:  100 * blast.SiblingCostDriftMax,
		Recovered:        blast.Recovered,
		MTTRUs:           float64(blast.MTTR) / 1e3,
		Restarts:         blast.Restarts,
		Restores:         blast.Restores,
	}
	fmt.Printf("  blast radius: shard %d compromised -> %d/%d apps degraded (%d off-shard), sibling drift %.2f%%, MTTR %v\n",
		blast.BadShard, blast.DegradedApps, blast.Apps, blast.DegradedOffShard,
		report.BlastRadius.SiblingDriftPct, blast.MTTR)

	mig, err := fleetMigrationDemo()
	if err != nil {
		return fmt.Errorf("migration demo: %w", err)
	}
	report.Migration = mig
	fmt.Printf("  migration: %d move(s) at %.0f sim-us each, data survived=%v, rebalance moved %d, evacuate moved %d\n",
		mig.Migrations, mig.CostSimUs, mig.DataOK, mig.Rebalanced, mig.Evacuated)

	rows, err := fleetTableIRows()
	if err == nil {
		err = checkPinned(rows...)
	}
	if err != nil {
		return fmt.Errorf("pinned Table I guard on the fleet shard: %w", err)
	}
	report.PinnedOK = true
	fmt.Println("  pinned Table I rows on a 1-CVM paper-profile shard: ok")

	if err := fleetFloors(&report); err != nil {
		return err
	}
	if err := writeReport(fleetJSONFile, &report); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", fleetJSONFile)
	return nil
}

// maxSiblingDriftPct bounds how much a compromised shard's incident may
// move the per-op sim cost of apps on its sibling shards.
const maxSiblingDriftPct = 10

// fleetFloors enforces the acceptance criteria: 8 CVMs at >= 0.8x
// linear (>= 6.4x one CVM), blast radius confined to the compromised
// shard with siblings' per-op cost within maxSiblingDriftPct, migration
// preserving data, and the pinned rows intact.
func fleetFloors(report *fleetReport) error {
	if report.LinearEfficiency8 < 0.8 {
		return fmt.Errorf("8-CVM efficiency %.2f below the 0.8x-linear acceptance floor", report.LinearEfficiency8)
	}
	b := report.BlastRadius
	if b.DegradedApps == 0 {
		return fmt.Errorf("blast-radius drill degraded no apps — drill is vacuous")
	}
	if b.DegradedOffShard != 0 {
		return fmt.Errorf("blast radius leaked: %d apps off shard %d degraded", b.DegradedOffShard, b.BadShard)
	}
	if b.SiblingDriftPct > maxSiblingDriftPct {
		return fmt.Errorf("sibling shards' per-op cost drifted %.2f%% during the incident, above the %d%% floor", b.SiblingDriftPct, maxSiblingDriftPct)
	}
	if !b.Recovered {
		return fmt.Errorf("compromised shard never recovered to full health")
	}
	if !report.Migration.DataOK || !report.Migration.ServeAfter {
		return fmt.Errorf("migration lost app state or left the app unserved: %+v", report.Migration)
	}
	if !report.PinnedOK {
		return fmt.Errorf("pinned Table I rows moved on the 1-CVM fleet shard")
	}
	return nil
}

// fleetMigrationDemo moves a warm app between shards and verifies its
// durable state follows it, then exercises rebalance and evacuation.
func fleetMigrationDemo() (fleetMigrationRow, error) {
	var row fleetMigrationRow
	f, err := anception.NewFleet(anception.Options{
		Mode: anception.ModeAnception, DisableTrace: true,
		RedirCache: true, RingDepth: 64, GrantThreshold: 16 << 10,
		FleetSize: 2,
	})
	if err != nil {
		return row, err
	}
	defer f.Close()

	apps := make([]*anception.FleetApp, 4)
	for i := range apps {
		apps[i], err = f.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.fleet.demo%d", i)})
		if err != nil {
			return row, err
		}
	}
	mover := apps[0]
	p := mover.Proc()
	fd, err := p.Open("state.dat", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		return row, err
	}
	payload := []byte("durable app state rides the migration")
	if _, err := p.Pwrite(fd, payload, 0); err != nil {
		return row, err
	}

	src := f.Shard(mover.Shard())
	target := 1 - mover.Shard()
	epochBefore := src.Dev.Layer.Stats().Epoch.Advances
	costBefore := src.Dev.Clock.Now() + f.Shard(target).Dev.Clock.Now()
	if err := f.Migrate(mover, target); err != nil {
		return row, err
	}
	costAfter := src.Dev.Clock.Now() + f.Shard(target).Dev.Clock.Now()
	row.Migrations = f.Migrations()
	row.CostSimUs = float64(costAfter-costBefore) / 1e3
	row.SourceDrain = src.Dev.Layer.Stats().Epoch.Advances - epochBefore

	np := mover.Proc()
	nfd, err := np.Open("state.dat", abi.ORdOnly, 0)
	if err != nil {
		return row, fmt.Errorf("reopen after migration: %w", err)
	}
	got, err := np.Pread(nfd, len(payload), 0)
	if err != nil {
		return row, fmt.Errorf("read after migration: %w", err)
	}
	row.DataOK = string(got) == string(payload)

	// The moved app keeps serving writes on its new shard.
	if _, err := np.Pwrite(nfd, nil, 0); err == nil {
		row.ServeAfter = true
	} else {
		wfd, werr := np.Open("after.dat", abi.OWrOnly|abi.OCreat, 0o600)
		if werr != nil {
			return row, fmt.Errorf("post-migration write: %w", werr)
		}
		if _, werr := np.Pwrite(wfd, payload, 0); werr != nil {
			return row, fmt.Errorf("post-migration write: %w", werr)
		}
		row.ServeAfter = true
	}

	if moves, err := f.Rebalance(); err == nil {
		row.Rebalanced = moves
	} else {
		return row, fmt.Errorf("rebalance: %w", err)
	}
	if moves, err := f.EvacuateShard(0); err == nil {
		row.Evacuated = moves
	} else {
		return row, fmt.Errorf("evacuate: %w", err)
	}
	return row, nil
}

// fleetTableIRows measures bench-json's uncached Table I rows on a
// 1-CVM fleet shard booted on the Paper profile: the fleet plumbing must
// charge byte-for-byte what the pinned rows give for a plain uncached
// device.
func fleetTableIRows() ([]benchRow, error) {
	f, err := anception.NewFleet(anception.Options{
		Mode: anception.ModeAnception, DisableTrace: true, FleetSize: 1,
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	app, err := f.InstallApp(android.AppSpec{Package: "com.bench"})
	if err != nil {
		return nil, err
	}
	t := appTask{p: app.Proc()}
	if err := benchSetup(&t); err != nil {
		return nil, err
	}
	return tableIRows(f.Shard(0).Dev, t, "anception-uncached")
}
