package anception

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/sim"
	"anception/internal/supervisor"
	"anception/internal/vfs"
)

// CVM fleet (DESIGN.md §16): N container VMs instead of one, each a
// full independent service domain — its own physical region, data
// channels, async ring, grant table, boot generation, redirection
// layer, and watchdog — scheduled by the placement policy in
// placement.go. Shards model CVMs pinned to separate cores: each runs
// on its own sim clock, so fleet throughput is total work over the
// slowest shard's elapsed time, and one shard's restart or compromise
// burns only that shard's time and warm state. The epoch/drain
// protocol is keyed per-CVM structurally: every shard owns its own
// Layer, whose AdvanceEpoch drains exactly that shard's
// grants→ring→sockets→binder→cache and nothing else.

// Shard is one CVM service domain of the fleet.
type Shard struct {
	// ID is the shard index, stable for the fleet's lifetime.
	ID int
	// Dev is the shard's device: host interposer + container pair on a
	// private sim clock.
	Dev *Device
	// Sup is the shard's watchdog. Tick it directly or through the
	// fleet's supervisor group.
	Sup *supervisor.Supervisor

	apps atomic.Int64
}

func (sh *Shard) appCount() int { return int(sh.apps.Load()) }

// FleetApp is an app enrolled on the fleet. Its Proc handle stays valid
// across migrations: Proc() always returns the process on the app's
// current shard.
type FleetApp struct {
	Pkg string

	fleet *Fleet
	mu    sync.Mutex
	shard *Shard
	proc  *Proc
	spec  android.AppSpec
	// moves counts completed migrations of this app.
	moves int
}

// Proc returns the app's process handle on its current shard.
func (a *FleetApp) Proc() *Proc {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.proc
}

// Shard returns the app's current shard ID.
func (a *FleetApp) Shard() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shard.ID
}

// Moves reports how many migrations this app has completed.
func (a *FleetApp) Moves() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.moves
}

// Fleet owns N CVM shards and the placement scheduler over them.
type Fleet struct {
	mu         sync.Mutex
	shards     []*Shard
	apps       map[string]*FleetApp
	group      *supervisor.Group
	migrations int
}

// NewFleet boots Options.FleetSize shards (default 1), each a full
// Anception device built from the same option template with a per-shard
// label, plus a per-shard supervisor wired into one Group. Options.Mode
// must be ModeAnception (the zero value defaults to it).
func NewFleet(opts Options) (*Fleet, error) {
	if opts.Mode == 0 {
		opts.Mode = ModeAnception
	}
	if opts.Mode != ModeAnception {
		return nil, fmt.Errorf("fleet: mode %s not shardable: %w", opts.Mode, abi.EINVAL)
	}
	size := opts.FleetSize
	if size <= 0 {
		size = 1
	}
	f := &Fleet{
		apps:  make(map[string]*FleetApp),
		group: supervisor.NewGroup(),
	}
	for i := 0; i < size; i++ {
		shardOpts := opts
		shardOpts.FleetSize = 0
		dev, err := newDevice(shardOpts, fmt.Sprintf("shard-%d", i))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: boot shard %d: %w", i, err)
		}
		sup := supervisor.New(dev, dev.Clock, dev.Trace, supervisor.Config{})
		sh := &Shard{ID: i, Dev: dev, Sup: sup}
		f.shards = append(f.shards, sh)
		f.group.Add(sup)
	}
	return f, nil
}

// Size is the shard count.
func (f *Fleet) Size() int { return len(f.shards) }

// Shard returns shard i.
func (f *Fleet) Shard(i int) *Shard { return f.shards[i] }

// Shards returns every shard in ID order.
func (f *Fleet) Shards() []*Shard { return f.shards }

// Group returns the fleet's supervisor group (one watchdog per shard).
func (f *Fleet) Group() *supervisor.Group { return f.group }

// App returns the enrolled app by package name, or nil.
func (f *Fleet) App(pkg string) *FleetApp {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.apps[pkg]
}

// Apps returns every enrolled app.
func (f *Fleet) Apps() []*FleetApp {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*FleetApp, 0, len(f.apps))
	for _, a := range f.apps {
		out = append(out, a)
	}
	return out
}

// Migrations counts completed app migrations across the fleet.
func (f *Fleet) Migrations() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.migrations
}

// Elapsed is the fleet's wall time: the slowest shard's sim clock.
// Shards are independently scheduled service domains, so the fleet
// finishes when its slowest shard does.
func (f *Fleet) Elapsed() time.Duration {
	var max time.Duration
	for _, sh := range f.shards {
		if now := sh.Dev.Clock.Now(); now > max {
			max = now
		}
	}
	return max
}

// InstallApp enrolls an app: placement picks the least-loaded shard, the
// app installs there — code on that shard's host, data dir in its CVM —
// and launches.
func (f *Fleet) InstallApp(spec android.AppSpec) (*FleetApp, error) {
	f.mu.Lock()
	if _, dup := f.apps[spec.Package]; dup {
		f.mu.Unlock()
		return nil, fmt.Errorf("fleet: install %s: %w", spec.Package, abi.EEXIST)
	}
	sh := f.pickShard()
	f.mu.Unlock()

	app, err := sh.Dev.InstallApp(spec)
	if err != nil {
		return nil, err
	}
	proc, err := sh.Dev.Launch(app)
	if err != nil {
		return nil, err
	}
	fa := &FleetApp{Pkg: spec.Package, fleet: f, shard: sh, proc: proc, spec: spec}
	sh.apps.Add(1)
	f.mu.Lock()
	f.apps[spec.Package] = fa
	f.mu.Unlock()
	return fa, nil
}

// Migrate moves an app to the target shard: flush its buffered cache
// writes to the source guest, gate the source shard (the layer's
// EAGAIN gate — new calls retry, in-flight ones drain), advance the
// source shard's epoch so its warm fast-path state for the old
// enrollment drains (per-CVM keyed: sibling shards are untouched), copy
// the app's CVM-resident data directory to the target guest, re-enroll
// and relaunch there, and reopen the gate. The old process dies; the
// FleetApp's Proc() swaps to the new shard.
func (f *Fleet) Migrate(app *FleetApp, targetID int) error {
	if targetID < 0 || targetID >= len(f.shards) {
		return fmt.Errorf("fleet: migrate %s: no shard %d: %w", app.Pkg, targetID, abi.EINVAL)
	}
	target := f.shards[targetID]

	app.mu.Lock()
	defer app.mu.Unlock()
	src := app.shard
	if src == target {
		return nil
	}
	oldProc := app.proc

	// Write back buffered extents while the gate is still open (the
	// flush forwards writes to the source guest, which a closed gate
	// would fail with EAGAIN). The flush is shard-wide — each cached
	// descriptor rides its own task's proxy — because the epoch advance
	// below invalidates the whole shard's cache and would otherwise
	// discard sibling apps' unflushed writes.
	if err := src.Dev.Layer.FlushRedirCache(); err != nil {
		return fmt.Errorf("fleet: migrate %s: flush: %w", app.Pkg, err)
	}

	// Quiesce the source shard: close the layer's EAGAIN gate, then
	// wait out in-flight guest calls.
	src.Dev.SetDegraded(true)
	src.Dev.Layer.QuiesceGuestCalls()

	// Drain the app's epoch participants on the source shard. The epoch
	// is keyed to this CVM: grants, ring slots, sockets, binder
	// sessions, and cache pages warmed against this shard roll; sibling
	// shards' fast paths never notice.
	src.Dev.AdvanceEpoch()

	err := func() error {
		// Re-enroll on the target (idempotent for an app migrating back).
		dstApp := target.Dev.App(app.Pkg)
		if dstApp == nil {
			var ierr error
			dstApp, ierr = target.Dev.InstallApp(app.spec)
			if ierr != nil {
				return fmt.Errorf("fleet: migrate %s: install on shard %d: %w", app.Pkg, targetID, ierr)
			}
		}
		// Move the CVM-resident data directory between guest filesystems.
		srcInfo := src.Dev.App(app.Pkg)
		if srcInfo != nil {
			if cerr := copyTree(src.Dev.Guest.FS(), target.Dev.Guest.FS(), srcInfo.Info.DataDir); cerr != nil {
				return fmt.Errorf("fleet: migrate %s: copy data dir: %w", app.Pkg, cerr)
			}
			if cerr := chownTree(target.Dev.Guest.FS(), dstApp.Info.DataDir, dstApp.UID); cerr != nil {
				return fmt.Errorf("fleet: migrate %s: chown data dir: %w", app.Pkg, cerr)
			}
		}
		proc, lerr := target.Dev.Launch(dstApp)
		if lerr != nil {
			return fmt.Errorf("fleet: migrate %s: launch on shard %d: %w", app.Pkg, targetID, lerr)
		}
		app.proc = proc
		return nil
	}()
	src.Dev.SetDegraded(false)
	if err != nil {
		return err
	}

	// Retire the old enrollment.
	oldProc.Task.SetState(kernel.TaskDead)
	src.apps.Add(-1)
	target.apps.Add(1)
	app.shard = target
	app.moves++
	if tr := src.Dev.Trace; tr != nil {
		tr.Record(sim.EvLifecycle, "migrated %s: %s -> %s", app.Pkg, src.Dev.Label(), target.Dev.Label())
	}
	f.mu.Lock()
	f.migrations++
	f.mu.Unlock()
	return nil
}

// Close shuts down every shard's background machinery.
func (f *Fleet) Close() {
	for _, sh := range f.shards {
		sh.Dev.Close()
	}
}

// fsRoot is the system credential tree copies run under.
var fsRoot = abi.Cred{UID: abi.UIDRoot}

// copyTree recursively copies the directory at path from src to dst,
// overwriting existing regular files. Symlinks are re-created; device
// nodes are skipped (app data dirs do not carry them).
func copyTree(src, dst *vfs.FileSystem, path string) error {
	st, err := src.LstatPath(fsRoot, path)
	if err != nil {
		return err
	}
	switch st.Type {
	case vfs.TypeDir:
		if err := dst.MkdirAll(fsRoot, path, st.Mode); err != nil && err != abi.EEXIST {
			return err
		}
		entries, err := src.ReadDir(fsRoot, path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := copyTree(src, dst, path+"/"+e.Name); err != nil {
				return err
			}
		}
		return nil
	case vfs.TypeSymlink:
		target, err := src.Readlink(fsRoot, path)
		if err != nil {
			return err
		}
		_ = dst.Unlink(fsRoot, path)
		return dst.Symlink(fsRoot, target, path)
	case vfs.TypeRegular:
		sf, err := src.Open(fsRoot, path, abi.ORdOnly, 0)
		if err != nil {
			return err
		}
		data := make([]byte, st.Size)
		if st.Size > 0 {
			if _, err := sf.ReadAt(data, 0); err != nil {
				return err
			}
		}
		df, err := dst.Open(fsRoot, path, abi.OWrOnly|abi.OCreat|abi.OTrunc, st.Mode)
		if err != nil {
			return err
		}
		if len(data) > 0 {
			if _, err := df.WriteAt(data, 0); err != nil {
				return err
			}
		}
		return nil
	default:
		return nil
	}
}

// chownTree re-owns the copied tree to the target shard's UID for the
// app (each shard's package manager assigns UIDs independently).
func chownTree(fs *vfs.FileSystem, path string, uid int) error {
	st, err := fs.LstatPath(fsRoot, path)
	if err != nil {
		return err
	}
	if st.Type != vfs.TypeSymlink {
		if err := fs.Chown(fsRoot, path, uid, uid); err != nil {
			return err
		}
	}
	if st.Type == vfs.TypeDir {
		entries, err := fs.ReadDir(fsRoot, path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := chownTree(fs, path+"/"+e.Name, uid); err != nil {
				return err
			}
		}
	}
	return nil
}
