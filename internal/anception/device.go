// Package anception assembles the three platforms the paper evaluates —
// native Android, Anception-based Android, and classical whole-stack
// virtualization (Cells/AirBag style) — and implements the Anception
// layer itself: the ASIM-driven interceptor that decomposes an app's trust
// between the host kernel and the container VM.
//
// This package is the library's primary public surface: construct a Device
// with NewDevice, install apps, launch them, and drive them through the
// Proc system-call API.
package anception

import (
	"fmt"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/binder"
	"anception/internal/hypervisor"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/netstack"
	"anception/internal/proxy"
	"anception/internal/sim"
	"anception/internal/vfs"
)

// Mode selects the platform architecture.
type Mode int

// Platform modes.
const (
	// ModeNative is stock Android: one kernel, all services privileged.
	ModeNative Mode = iota + 1
	// ModeAnception is the paper's design: trusted host kernel with the
	// UI stack plus a deprivileged headless container servicing
	// redirected calls.
	ModeAnception
	// ModeClassicalVM is the baseline the paper compares against in
	// Section V-B: the whole Android stack, apps included, inside one
	// untrusted guest.
	ModeClassicalVM
)

// The fast profile Options.AutoTune expands into (DESIGN.md §15). Each
// value is the one a measurement picked: the ring beats the sync
// channel at every thread count (-exp concurrency) and reaps best at
// full depth; grants beat copies from 16 KiB (-exp zerocopy).
const (
	autoTuneRingDepth      = 64
	autoTuneRingWorkers    = 1
	autoTuneGrantThreshold = 16 << 10
)

// The device's fixed memory layout: a 1 GB device and a 16-page shared
// data channel. The guest kernel's own footprint is the CVM's 64 MB
// minus the paper's 49,228 KB available, minus the channel pages
// accounted separately.
const (
	deviceMemoryBytes       = 1 << 30
	channelPages            = 16
	guestKernelReserveBytes = (65536-49228)*1024 - channelPages*abi.PageSize
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeAnception:
		return "anception"
	case ModeClassicalVM:
		return "classical-vm"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configures a Device. The zero value plus a Mode boots the
// paper's configuration: 1 GB device, 64 MB CVM, 4096-byte chunking,
// remapped-page transport, optimized proxy dispatch, headless container.
type Options struct {
	Mode Mode

	// CVMMemoryBytes is the container's assignment (default 64 MB).
	CVMMemoryBytes int64

	// ChunkSize overrides the data-channel transfer unit (ablation A2).
	ChunkSize int
	// SocketTransport selects the discarded socket-style channel (A5).
	SocketTransport bool
	// NaiveDispatch disables the in-kernel proxy wait (A3).
	NaiveDispatch bool
	// KeepFSOnHost services filesystem calls on the host (A1), trading
	// deprivileged code for I/O latency.
	KeepFSOnHost bool
	// FullCVMStack boots a non-headless container (A4).
	FullCVMStack bool
	// CallDeadline bounds each redirected call in sim time (default
	// anception.DefaultCallDeadline).
	CallDeadline time.Duration

	// RedirCache enables the host-side redirection cache (DESIGN.md §9):
	// per-descriptor page caching with read-ahead, write coalescing, and
	// a path-attribute cache for idempotent calls. Off by default — the
	// paper's Table I numbers are measured without it.
	RedirCache bool

	// RingDepth > 0 replaces the synchronous page channel with the
	// asynchronous redirection ring: that many SQ/CQ slots in the
	// remapped channel pages, coalesced doorbell interrupts, and a guest
	// proxy worker pool draining submissions concurrently. Off by
	// default — the paper's Table I single-call rows are measured on the
	// synchronous channel.
	RingDepth int
	// RingWorkers is the proxy worker pool size when the ring is active
	// (default proxy.DefaultPoolWorkers). Entries sharing a descriptor
	// stay FIFO; distinct descriptors execute concurrently.
	RingWorkers int
	// RingReapBatch overrides the ring's CQ reap threshold (default
	// marshal.RingReapBatch). Deep pipelined workloads raise it to
	// amortize completion interrupts across more slots.
	RingReapBatch int

	// GrantThreshold > 0 enables the zero-copy grant path (DESIGN.md
	// §11): bulk I/O calls moving at least this many bytes pin the app
	// buffer's pages into a hypervisor grant table mapped into guest
	// space and ship a fixed-size scatter-gather descriptor over the
	// channel instead of chunked copies. Smaller calls keep the copy
	// path, whose fixed costs undercut a grant map + TLB shootdown. Off
	// by default — the paper's Table I rows are measured without it.
	GrantThreshold int

	// BinderSessions enables persistent binder sessions to CVM-resident
	// services (DESIGN.md §12): the first transaction to a service pays a
	// one-time BinderSessionSetup (proxy enrollment + pinned guest
	// handle) and later ones skip the guest lookup and cold CVM wakeup,
	// paying BinderSessionPerTxn instead of the full 18.7 ms penalty.
	// With RingDepth > 0, session transactions ride the async ring. Off
	// by default — the paper's 31.0/31.3 ms Table I rows are measured on
	// the uncached synchronous bridge.
	BinderSessions bool
	// BinderReplyCache caches replies of transaction codes declared
	// read-only at Register, keyed on (service, code, payload hash);
	// invalidated by any mutating transaction to the same service, by CVM
	// restart, and bypassed in degraded mode. Off by default.
	BinderReplyCache bool

	// FusionEnable boots the syscall-fusion layer (DESIGN.md §17):
	// Proc.Chain packs dependent call chains into linked ring
	// submissions executed guest-side in one round trip when every link
	// admits to the container, and a per-task pattern detector
	// transparently fuses repeated send→recv pairs. Requires an async
	// ring (RingDepth > 0 or
	// AutoTune); without one, chains execute per-call. AutoTune implies
	// FusionEnable. Chains longer than DefaultFusionMaxLinks run
	// per-call. Off by default.
	FusionEnable bool

	// AutoTune selects the Fast profile (DESIGN.md §15): boot expands it
	// once into the knobs above — RingDepth 64, RingWorkers 1,
	// RingReapBatch equal to the depth, GrantThreshold 16 KiB,
	// RedirCache, BinderSessions, BinderReplyCache and FusionEnable. A
	// knob the caller set keeps its value. Every decision then follows
	// the static knob rules: the ring serves, payloads of at least
	// GrantThreshold ride grants, and the cache serves. SocketTransport
	// is ignored under AutoTune. Off by default: the zero Options is the
	// Paper profile, the synchronous uncached channel Table I measures.
	AutoTune bool

	// SnapshotInterval > 0 enables hypervisor checkpoints (DESIGN.md §13):
	// the supervisor seals a copy-on-write snapshot of the healthy CVM at
	// most this often (simulated time), and its watchdog restores from the
	// latest verified checkpoint instead of cold-restarting — near-zero
	// MTTR, with warm state provably unchanged since the checkpoint
	// surviving the swap. Off by default.
	SnapshotInterval time.Duration

	// Vulns selects the historical bugs present on the platform.
	Vulns android.VulnProfile

	// DisableTrace turns off event recording (benchmarks).
	DisableTrace bool

	// FleetSize > 1 is consumed by NewFleet: the number of CVM shards
	// the fleet boots, each a full service domain (own channels, ring,
	// grant table, boot generation, supervisor). NewDevice ignores it —
	// a Device is always exactly one CVM.
	FleetSize int
	// FleetPlacement selects the fleet's placement scheduler policy
	// (least-loaded, hashed, per-user). NewDevice ignores it.
	FleetPlacement PlacementPolicy
}

func (o *Options) applyDefaults() {
	if o.Mode == 0 {
		o.Mode = ModeAnception
	}
	if o.CVMMemoryBytes == 0 {
		o.CVMMemoryBytes = 64 << 20
	}
	if o.AutoTune {
		o.applyFastProfile()
	}
}

// applyFastProfile expands AutoTune into the fast-path knobs, keeping
// every value the caller set.
func (o *Options) applyFastProfile() {
	if o.RingDepth <= 0 {
		o.RingDepth = autoTuneRingDepth
	}
	if o.RingWorkers <= 0 {
		// One hot proxy worker. Worker count never changes modeled
		// throughput under concurrency (handlers charge the shared sim
		// clock either way), but sharding interleaved keys across cold
		// workers pays a ProxyDispatch wakeup per shard switch.
		o.RingWorkers = autoTuneRingWorkers
	}
	if o.RingReapBatch <= 0 {
		// The throughput sweeps reap at full depth: fewer, larger CQ
		// sweeps win.
		o.RingReapBatch = o.RingDepth
	}
	if o.GrantThreshold <= 0 {
		o.GrantThreshold = autoTuneGrantThreshold
	}
	o.RedirCache = true
	o.BinderSessions = true
	o.BinderReplyCache = true
	o.FusionEnable = true
}

// Device is one booted simulated smartphone.
type Device struct {
	Opts  Options
	Clock *sim.Clock
	Model sim.LatencyModel
	Trace *sim.Trace
	Phys  *kernel.Physical

	Host         *kernel.Kernel
	HostServices *android.Services

	CVM           *hypervisor.CVM
	Guest         *kernel.Kernel
	GuestServices *android.Services

	Proxies *proxy.Manager
	Layer   *Layer

	// ring/ringPool are set when Options.RingDepth > 0: the async
	// transport and the guest-side worker pool draining it.
	ring     *marshal.RingChannel
	ringPool *proxy.Pool

	// label names the container in traces and fleet bookkeeping:
	// "shard-N" under a fleet, empty (shown as "cvm") otherwise.
	label string

	// grants is set when Options.GrantThreshold > 0: the zero-copy
	// grant table shared by the layer and the guest side.
	grants *hypervisor.GrantTable

	// snapshots is set when Options.SnapshotInterval > 0: the checkpoint
	// policy feeding the supervisor's restore-first recovery path.
	snapshots *hypervisor.Snapshotter

	PM *android.PackageManager

	apps map[string]*App
}

// NewDevice boots a platform in the given configuration.
func NewDevice(opts Options) (*Device, error) {
	return newDevice(opts, "")
}

// newDevice boots a device whose container is named label (NewFleet
// names its shards; a lone device passes "").
func newDevice(opts Options, label string) (*Device, error) {
	opts.applyDefaults()
	clock := sim.NewClock()
	model := sim.DefaultLatencyModel()
	var trace *sim.Trace
	if !opts.DisableTrace {
		trace = sim.NewTrace(clock)
	}

	d := &Device{
		Opts:  opts,
		Clock: clock,
		Model: model,
		Trace: trace,
		Phys:  kernel.NewPhysical(deviceMemoryBytes),
		PM:    android.NewPackageManager(),
		apps:  make(map[string]*App),
		label: label,
	}

	switch opts.Mode {
	case ModeNative:
		if err := d.bootNative(); err != nil {
			return nil, fmt.Errorf("boot native: %w", err)
		}
	case ModeAnception:
		if err := d.bootAnception(); err != nil {
			return nil, fmt.Errorf("boot anception: %w", err)
		}
	case ModeClassicalVM:
		if err := d.bootClassical(); err != nil {
			return nil, fmt.Errorf("boot classical vm: %w", err)
		}
	default:
		return nil, fmt.Errorf("unknown mode %d: %w", opts.Mode, abi.EINVAL)
	}
	return d, nil
}

func (d *Device) newKernel(name string, alloc *kernel.Allocator, minAddr uint64) (*kernel.Kernel, error) {
	fs := vfs.New()
	if err := android.BuildSystemImage(fs); err != nil {
		return nil, err
	}
	return d.newKernelWithFS(name, fs, alloc, minAddr)
}

func (d *Device) newKernelWithFS(name string, fs *vfs.FileSystem, alloc *kernel.Allocator, minAddr uint64) (*kernel.Kernel, error) {
	k := kernel.New(kernel.Config{
		Name:        name,
		Clock:       d.Clock,
		Model:       d.Model,
		Trace:       d.Trace,
		FS:          fs,
		Net:         netstack.New(name),
		Binder:      binder.NewDriver(),
		Alloc:       alloc,
		MmapMinAddr: minAddr,
	})
	if d.Opts.Vulns.NullSendpage {
		k.Net().InjectVulnerability(netstack.AFBluetooth, netstack.SockDgram, netstack.VulnNullSendpage)
	}
	k.SetVulns(kernel.KernelVulns{
		ProcMemWriteBypass: d.Opts.Vulns.ProcMemWriteBypass,
		PerfCounterBug:     d.Opts.Vulns.PerfCounterBug,
		PutUserUnchecked:   d.Opts.Vulns.PutUserUnchecked,
	})
	return k, nil
}

func (d *Device) minAddr() uint64 {
	if d.Opts.Vulns.MmapMinAddrZero {
		return 0
	}
	return abi.PageSize
}

func (d *Device) bootNative() error {
	k, err := d.newKernel("host", d.Phys.NewAllocator("host", kernel.Region{}), d.minAddr())
	if err != nil {
		return err
	}
	svcs, err := android.Boot(k, android.BootConfig{Vulns: d.Opts.Vulns})
	if err != nil {
		return err
	}
	d.Host, d.HostServices = k, svcs
	return nil
}

func (d *Device) bootAnception() error {
	// Host kernel: UI stack only.
	host, err := d.newKernel("host", d.Phys.NewAllocator("host", kernel.Region{}), d.minAddr())
	if err != nil {
		return err
	}
	hostSvcs, err := android.Boot(host, android.BootConfig{UIOnly: true, Vulns: d.Opts.Vulns})
	if err != nil {
		return err
	}

	// Container VM.
	cvm, err := hypervisor.Launch(d.Phys, hypervisor.Config{
		Clock:              d.Clock,
		Model:              d.Model,
		Trace:              d.Trace,
		MemoryBytes:        d.Opts.CVMMemoryBytes,
		KernelReserveBytes: guestKernelReserveBytes,
		ChannelPages:       channelPages,
		Label:              d.label,
	})
	if err != nil {
		return err
	}

	// Guest kernel: headless Android (Section IV-4) unless the A4
	// ablation asks for the full stack.
	guest, err := d.newKernel("cvm", cvm.GuestAllocator(), d.minAddr())
	if err != nil {
		return err
	}
	guestSvcs, err := android.Boot(guest, android.BootConfig{
		Headless: !d.Opts.FullCVMStack,
		Vulns:    d.Opts.Vulns,
	})
	if err != nil {
		return err
	}

	proxies := proxy.NewManager(guest, d.Clock, d.Model, d.Trace)
	proxies.SetNaiveDispatch(d.Opts.NaiveDispatch)

	var transport marshal.Transport
	switch {
	case d.Opts.RingDepth > 0:
		ring := marshal.NewRingChannel(cvm, d.Clock, d.Model, d.Trace, d.Opts.RingDepth, d.Opts.ChunkSize)
		if d.Opts.RingReapBatch > 0 {
			ring.SetReapBatch(d.Opts.RingReapBatch)
		}
		d.ring = ring
		d.ringPool = proxy.NewPool(ring, d.Opts.RingWorkers, d.Clock, d.Model)
		d.ringPool.Start()
		transport = ring
	case d.Opts.SocketTransport:
		transport = marshal.NewSocketChannel(cvm, d.Clock, d.Model)
	default:
		transport = marshal.NewPageChannel(cvm, d.Clock, d.Model, d.Opts.ChunkSize)
	}

	if d.Opts.GrantThreshold > 0 {
		d.grants = hypervisor.NewGrantTable(cvm)
	}

	if d.Opts.SnapshotInterval > 0 {
		d.snapshots = hypervisor.NewSnapshotter(cvm, hypervisor.SnapshotterConfig{
			Interval: d.Opts.SnapshotInterval,
		})
	}

	layer, err := NewLayer(LayerConfig{
		Host:         host,
		Guest:        guest,
		CVM:          cvm,
		Proxies:      proxies,
		Transport:    transport,
		Clock:        d.Clock,
		Model:        d.Model,
		Trace:        d.Trace,
		KeepFSOnHost: d.Opts.KeepFSOnHost,
		CallDeadline: d.Opts.CallDeadline,

		RedirCache: d.Opts.RedirCache,

		GrantTable:     d.grants,
		GrantThreshold: d.Opts.GrantThreshold,

		BinderSessions:   d.Opts.BinderSessions,
		BinderReplyCache: d.Opts.BinderReplyCache,

		FusionEnable: d.Opts.FusionEnable,
	})
	if err != nil {
		return err
	}
	host.SetInterceptor(layer)

	// Key the guest stack to the boot generation so ConnectPolicy
	// re-checks fire after a restart.
	guest.Net().SetGeneration(uint64(cvm.Generation()))

	d.Host, d.HostServices = host, hostSvcs
	d.CVM, d.Guest, d.GuestServices = cvm, guest, guestSvcs
	d.Proxies, d.Layer = proxies, layer
	return nil
}

func (d *Device) bootClassical() error {
	// Bare host kernel (the hypervisor's dom0); no Android on it.
	host, err := d.newKernel("host", d.Phys.NewAllocator("host", kernel.Region{}), d.minAddr())
	if err != nil {
		return err
	}

	// One big guest carrying the entire stack, apps included. Size it
	// like a real Cells-style VM rather than the tiny Anception CVM.
	guestBytes := d.Opts.CVMMemoryBytes
	if guestBytes < 256<<20 {
		guestBytes = 256 << 20
	}
	cvm, err := hypervisor.Launch(d.Phys, hypervisor.Config{
		Clock:              d.Clock,
		Model:              d.Model,
		Trace:              d.Trace,
		MemoryBytes:        guestBytes,
		KernelReserveBytes: guestKernelReserveBytes,
		ChannelPages:       0,
	})
	if err != nil {
		return err
	}
	guest, err := d.newKernel("guest", cvm.GuestAllocator(), d.minAddr())
	if err != nil {
		return err
	}
	guestSvcs, err := android.Boot(guest, android.BootConfig{Vulns: d.Opts.Vulns})
	if err != nil {
		return err
	}

	d.Host = host
	d.CVM, d.Guest, d.GuestServices = cvm, guest, guestSvcs
	return nil
}

// RestartCVM reboots the container after a crash (or proactively): the
// guest's physical region is wiped, a fresh guest kernel boots on the
// container's persistent filesystem, services restart, and proxies are
// re-enrolled lazily on each app's next redirected call. Host apps keep
// running throughout; their stale container descriptors surface as EBADF
// and are reopened by the app, the crash-only recovery story the design
// enables.
func (d *Device) RestartCVM() error {
	if d.Opts.Mode != ModeAnception {
		return fmt.Errorf("restart cvm: not an anception platform: %w", abi.EINVAL)
	}
	// Take the old guest down (idempotent if it already panicked) and
	// wipe its memory.
	d.Guest.Panic("container restart")
	if err := d.CVM.Relaunch(); err != nil {
		return err
	}

	// Boot a fresh guest kernel on the persistent container filesystem.
	guest, svcs, proxies, err := d.rebuildGuest()
	if err != nil {
		return err
	}
	d.Guest, d.GuestServices, d.Proxies = guest, svcs, proxies
	d.Layer.ReplaceGuest(guest, proxies)
	if d.Trace != nil {
		d.Trace.Record(sim.EvLifecycle, "cvm restarted: fresh guest kernel, %d services", len(svcs.Names()))
	}
	return nil
}

// Snapshots returns the device's snapshotter (nil when
// Options.SnapshotInterval == 0). Exposed for tests and tooling.
func (d *Device) Snapshots() *hypervisor.Snapshotter {
	return d.snapshots
}

// SnapshotStats snapshots the checkpoint/restore counters (zero value
// when snapshots are disabled).
func (d *Device) SnapshotStats() hypervisor.SnapshotStats {
	if d.snapshots == nil {
		return hypervisor.SnapshotStats{}
	}
	return d.snapshots.Stats()
}

// Checkpoint seals a checkpoint of the container right now, regardless of
// the interval. Returns false when snapshots are disabled.
func (d *Device) Checkpoint() bool {
	if d.snapshots == nil || d.Opts.Mode != ModeAnception {
		return false
	}
	d.snapshots.Checkpoint()
	return true
}

// MaybeCheckpoint satisfies the supervisor's Checkpointer hook: called at
// the end of each healthy probe, it seals a checkpoint if the configured
// interval has passed. No-op (false) when snapshots are disabled.
func (d *Device) MaybeCheckpoint() bool {
	if d.snapshots == nil || d.Opts.Mode != ModeAnception {
		return false
	}
	return d.snapshots.MaybeCheckpoint()
}

// SnapshotUsable is the first half of the supervisor's SnapshotRestorer
// interface: it reports whether a restore could be attempted right now.
func (d *Device) SnapshotUsable() bool {
	return d.snapshots != nil && d.Opts.Mode == ModeAnception && d.snapshots.Usable()
}

// CorruptSnapshot rots the latest checkpoint image in place (fault
// drills); the next restore attempt fails its checksum and the watchdog
// falls back to a cold restart. Wire it to the injector with
// Injector.SetSnapshotCorrupter(dev.CorruptSnapshot).
func (d *Device) CorruptSnapshot() {
	if d.snapshots != nil {
		d.snapshots.Corrupt()
	}
}

// RestoreFromSnapshot is the second half of the supervisor's
// SnapshotRestorer interface: rewind the container to the latest verified
// checkpoint instead of cold-restarting it. The old guest is taken down,
// the CVM's memory image is rewritten copy-on-write (only frames dirtied
// since the checkpoint), and a guest kernel is brought up over the
// restored state. Warm state provably unchanged since the checkpoint —
// clean cache pages, pre-checkpoint binder sessions and replies,
// pre-checkpoint grants — survives via the layer's generation-aware
// reconciliation; everything newer drains exactly as a restart would.
// On any failure (checksum mismatch, staleness, missing image) the
// checkpoint is invalidated and the error returned, so the watchdog falls
// back to the cold path.
func (d *Device) RestoreFromSnapshot() error {
	if d.Opts.Mode != ModeAnception {
		return fmt.Errorf("restore from snapshot: not an anception platform: %w", abi.EINVAL)
	}
	if d.snapshots == nil {
		return fmt.Errorf("restore from snapshot: snapshots disabled: %w", abi.ENOENT)
	}
	snap := d.snapshots.Latest()
	if snap == nil {
		return fmt.Errorf("restore from snapshot: no checkpoint: %w", abi.ENOENT)
	}
	// Capture the checkpoint moment before Restore consumes the image:
	// it is the reconciliation watermark for warm-state survival.
	takenAt := snap.TakenAt
	d.Guest.Panic("snapshot restore")
	if err := d.snapshots.Restore(); err != nil {
		return err
	}
	guest, svcs, proxies, err := d.rebuildGuest()
	if err != nil {
		return err
	}
	d.Guest, d.GuestServices, d.Proxies = guest, svcs, proxies
	d.Layer.RestoreGuest(guest, proxies, takenAt)
	if d.Trace != nil {
		d.Trace.Record(sim.EvLifecycle, "cvm restored from checkpoint taken at %v (gen %d)", takenAt, d.CVM.Generation())
	}
	return nil
}

// LiveUpgrade swaps the guest under load: seal a checkpoint of the
// running container, gate new submissions (EAGAIN, retryable), drain
// every in-flight redirected call and ring slot gracefully — never
// EHOSTDOWN — then bring up the replacement guest over the restored
// state and reopen the gate. Essentially all warm state survives, since
// the checkpoint is taken at the moment of the swap.
func (d *Device) LiveUpgrade() error {
	if d.Opts.Mode != ModeAnception {
		return fmt.Errorf("live upgrade: not an anception platform: %w", abi.EINVAL)
	}
	if d.snapshots == nil {
		return fmt.Errorf("live upgrade: snapshots disabled: %w", abi.ENOENT)
	}
	snap := d.snapshots.Checkpoint()
	takenAt := snap.TakenAt

	// Quiesce: gate first (new arrivals fail EAGAIN and retry), then wait
	// for in-flight calls to drain — the layer barrier covers every
	// guest-touching span, the ring barrier covers detached oneway slots.
	d.SetDegraded(true)
	d.Layer.QuiesceGuestCalls()
	if d.ring != nil {
		d.ring.Quiesce()
	}

	d.Guest.Panic("live upgrade")
	if err := d.snapshots.Restore(); err != nil {
		d.SetDegraded(false)
		return fmt.Errorf("live upgrade: %w", err)
	}
	guest, svcs, proxies, err := d.rebuildGuest()
	if err != nil {
		d.SetDegraded(false)
		return fmt.Errorf("live upgrade: %w", err)
	}
	d.Guest, d.GuestServices, d.Proxies = guest, svcs, proxies
	d.Layer.UpgradeGuest(guest, proxies, takenAt)
	d.SetDegraded(false)
	if d.Trace != nil {
		d.Trace.Record(sim.EvLifecycle, "live upgrade complete (gen %d)", d.CVM.Generation())
	}
	return d.Probe()
}

// rebuildGuest boots a fresh guest kernel + services on the container's
// persistent filesystem with a fresh proxy manager — the common tail of
// RestartCVM, RestoreFromSnapshot, and LiveUpgrade.
func (d *Device) rebuildGuest() (*kernel.Kernel, *android.Services, *proxy.Manager, error) {
	guest, err := d.newKernelWithFS("cvm", d.Guest.FS(), d.CVM.GuestAllocator(), d.minAddr())
	if err != nil {
		return nil, nil, nil, err
	}
	svcs, err := android.Boot(guest, android.BootConfig{
		Headless: !d.Opts.FullCVMStack,
		Vulns:    d.Opts.Vulns,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	proxies := proxy.NewManager(guest, d.Clock, d.Model, d.Trace)
	proxies.SetNaiveDispatch(d.Opts.NaiveDispatch)
	return guest, svcs, proxies, nil
}

// AdvanceEpoch rolls every fast path's warm state to the CVM's current
// boot generation in one pinned pass (grants → ring → sockets → binder →
// cache; see Layer.AdvanceEpoch for the ordering contract). ReplaceGuest
// already does this implicitly on restart; the supervisor also calls it
// explicitly (via the EpochAdvancer hook) after each successful restart
// so no warm state can survive into the new container even if the
// restart path changes. Each participant no-ops when its fast path is
// disabled.
func (d *Device) AdvanceEpoch() {
	if d.Layer == nil || d.CVM == nil {
		return
	}
	d.Layer.AdvanceEpoch(d.CVM.Generation())
}

// NetStats snapshots the network fast-path counters.
func (d *Device) NetStats() NetPathStats {
	if d.Layer == nil {
		return NetPathStats{}
	}
	return d.Layer.NetStats()
}

// BinderStats snapshots the binder fast-path counters (zero value when
// both BinderSessions and BinderReplyCache are off).
func (d *Device) BinderStats() BinderStats {
	if d.Layer == nil {
		return BinderStats{}
	}
	return d.Layer.BinderStats()
}

// Grants returns the device's grant table (nil when the grant path is
// disabled). Exposed for tests and tooling that strand grants across a
// restart to probe the generation-tag machinery.
func (d *Device) Grants() *hypervisor.GrantTable {
	return d.grants
}

// GrantStats snapshots the zero-copy grant counters (zero value when
// Options.GrantThreshold == 0).
func (d *Device) GrantStats() GrantPathStats {
	if d.Layer == nil {
		return GrantPathStats{}
	}
	return d.Layer.GrantStats()
}

// Close shuts down the device's background machinery — today the async
// ring's worker pool. Queued submissions drain before the workers exit;
// devices on the synchronous channel need no Close.
func (d *Device) Close() {
	if d.ring == nil {
		return
	}
	d.ring.Close()
	d.ringPool.Wait()
}

// Label names this device's container ("cvm", or "shard-N" under a
// fleet).
func (d *Device) Label() string {
	if d.label == "" {
		return "cvm"
	}
	return d.label
}

// Probe sends one supervisor heartbeat through the Anception layer's data
// channel. It satisfies the supervisor's Target interface; see Layer.Ping
// for the error vocabulary.
func (d *Device) Probe() error {
	if d.Opts.Mode != ModeAnception {
		return fmt.Errorf("probe: not an anception platform: %w", abi.EINVAL)
	}
	return d.Layer.Ping()
}

// SetDegraded forwards circuit-breaker state to the Anception layer.
func (d *Device) SetDegraded(on bool) {
	if d.Layer != nil {
		d.Layer.SetDegraded(on)
	}
}

// GuestServiceAlive reports whether a named container service is still
// running. The supervisor checks critical services through this because a
// channel ping cannot see a dead service behind a live kernel.
func (d *Device) GuestServiceAlive(name string) bool {
	if d.GuestServices == nil {
		return false
	}
	svc := d.GuestServices.Service(name)
	if svc == nil || svc.Task == nil {
		return false
	}
	return svc.Task.CurrentState() == kernel.TaskRunning
}

// KillGuestService kills a named container service in place — a fault
// drill modeling a service crash that leaves the guest kernel up.
func (d *Device) KillGuestService(name string) error {
	if d.Opts.Mode != ModeAnception {
		return fmt.Errorf("kill guest service: not an anception platform: %w", abi.EINVAL)
	}
	svc := d.GuestServices.Service(name)
	if svc == nil || svc.Task == nil {
		return fmt.Errorf("kill guest service: no service %q: %w", name, abi.ENOENT)
	}
	svc.Task.SetState(kernel.TaskDead)
	if d.Trace != nil {
		d.Trace.Record(sim.EvFault, "injected: guest service %q killed (pid=%d)", name, svc.Task.PID)
	}
	return nil
}

// InjectGuestPanic crashes the container kernel — a fault drill modeling
// a guest kernel panic. Recovery is RestartCVM (typically driven by the
// supervisor's watchdog).
func (d *Device) InjectGuestPanic(reason string) {
	if d.Opts.Mode != ModeAnception || d.Guest == nil {
		return
	}
	if d.Trace != nil {
		d.Trace.Record(sim.EvFault, "injected: guest kernel panic (%s)", reason)
	}
	d.Guest.Panic(reason)
}

// AppKernel returns the kernel apps execute on: the host for native and
// Anception, the guest for classical virtualization.
func (d *Device) AppKernel() *kernel.Kernel {
	if d.Opts.Mode == ModeClassicalVM {
		return d.Guest
	}
	return d.Host
}

// UIServices returns the services owning the UI stack (where user input
// lands): host-side except under classical virtualization.
func (d *Device) UIServices() *android.Services {
	if d.Opts.Mode == ModeClassicalVM {
		return d.GuestServices
	}
	return d.HostServices
}

// DelegableServices returns the services Anception deprivileges: guest-
// side under Anception and classical VM, host-side natively.
func (d *Device) DelegableServices() *android.Services {
	if d.Opts.Mode == ModeNative {
		return d.HostServices
	}
	return d.GuestServices
}

// QueueInput delivers user input (e.g. a typed password) destined for an
// app, through whichever window manager owns the screen.
func (d *Device) QueueInput(app *App, event []byte) {
	d.UIServices().WM.QueueInput(app.UID, event)
}

// CVMMemory reports the container's memory statistics (Section VI-C).
func (d *Device) CVMMemory() hypervisor.MemoryStats {
	if d.CVM == nil || d.Guest == nil {
		return hypervisor.MemoryStats{}
	}
	return d.CVM.Memory(d.Guest.ResidentProcessPages())
}

// SetCVMFirewall installs a host-controlled outbound-connection policy on
// the stack that services app network calls — the CVM's under Anception
// ("the CVM's external connectivity can be controlled from the host by
// firewall rules", Section III-D). Pass nil to clear.
func (d *Device) SetCVMFirewall(policy netstack.ConnectPolicy) {
	if d.Opts.Mode == ModeAnception {
		d.Guest.Net().SetConnectPolicy(policy)
		return
	}
	d.AppKernel().Net().SetConnectPolicy(policy)
}

// RegisterRemote installs a scripted remote server reachable from the
// network stack that services app socket calls.
func (d *Device) RegisterRemote(addr string, h netstack.RemoteHandler) {
	// Under Anception the CVM owns external connectivity; natively and
	// under classical VM it is the app kernel's stack.
	if d.Opts.Mode == ModeAnception {
		d.Guest.Net().RegisterRemote(addr, h)
		return
	}
	d.AppKernel().Net().RegisterRemote(addr, h)
}
