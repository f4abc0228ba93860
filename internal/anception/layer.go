package anception

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/hypervisor"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/proxy"
	"anception/internal/redirect"
	"anception/internal/sim"
)

// Layer is the Anception kernel layer (Figure 3/4): it sits at the host
// syscall interface behind ASIM's redirection-entry check, decides where
// each call runs, marshals redirected calls over the data channel, and
// mirrors split-class state onto the proxies.
type Layer struct {
	host      *kernel.Kernel
	cvm       *hypervisor.CVM
	clock     *sim.Clock
	model     sim.LatencyModel
	trace     *sim.Trace
	execCache *proxy.ExecCache
	// cache is the redirection cache (DESIGN.md §9); nil unless enabled.
	cache *redirCache
	// grants is the zero-copy grant path (DESIGN.md §11); nil unless
	// Options.GrantThreshold > 0.
	grants *layerGrants
	// binder is the binder bridge fast path (DESIGN.md §12); nil unless
	// Options.BinderSessions or BinderReplyCache is set.
	binder *binderFastPath
	// policy counts the fixed dispatch decisions (DESIGN.md §15).
	policy dispatchPolicy
	// fusion is the syscall-fusion layer (DESIGN.md §17): linked ring
	// submissions plus the transparent chain-pattern detector; nil
	// unless Options.FusionEnable (or AutoTune).
	fusion *layerFusion
	// epoch is the generation-keyed drain protocol every fast path
	// registers with at boot; AdvanceEpoch rolls them in pinned order.
	epoch layerEpoch

	keepFSOnHost bool
	// deadline is the sim-clock budget of one redirected round-trip: a
	// hung transport or wedged guest surfaces as ETIMEDOUT at this bound
	// instead of blocking the app forever.
	deadline time.Duration

	// state is the hot-path snapshot: Intercept/forward load it once with
	// a single atomic read instead of taking a mutex per field. Writers
	// (ReplaceGuest, SetTransport, SetDegraded, SetResultTampering)
	// copy-on-write under mu, so readers always see a consistent tuple.
	state atomic.Pointer[layerState]

	// guestCalls counts redirected calls currently inside a guest-touching
	// span (transport round-trip, ring submit/wait, grant forward, binder
	// session dispatch). It is the live-upgrade quiesce barrier: with
	// degraded mode gating new entries, QuiesceGuestCalls waits for this
	// to reach zero before the guest is swapped under load.
	guestCalls atomic.Int64

	counters layerCounters

	// mu serializes state writers and guards mmapBindings; it is never
	// taken on the forwarding hot path.
	mu sync.Mutex
	// mmapBindings tracks host mappings backed by CVM files, for msync
	// write-back (Section III-D, Memory-mapped files).
	mmapBindings map[int]map[uint64]mmapBinding

	// frames is the free list of reusable call frames (frame.go).
	frames chan *callFrame
}

// layerState is the immutable hot-path snapshot; every mutation installs
// a fresh copy.
type layerState struct {
	guest     *kernel.Kernel
	proxies   *proxy.Manager
	transport marshal.Transport
	// degraded is the circuit-breaker fail-fast mode: forwarded calls
	// return EAGAIN immediately; UI and host classes are untouched.
	degraded bool
	tamper   func([]byte) []byte
}

// layerCounters are the routing/recovery counters, updated lock-free on
// the hot path and assembled into a LayerStats value by Stats().
type layerCounters struct {
	redirected    atomic.Int64
	hostExecuted  atomic.Int64
	split         atomic.Int64
	blocked       atomic.Int64
	binderBridged atomic.Int64
	uiPassthrough atomic.Int64
	appsKilled    atomic.Int64
	restarts      atomic.Int64
	timedOut      atomic.Int64
	failedFast    atomic.Int64
	hostDown      atomic.Int64

	grantCalls       atomic.Int64
	grantBytes       atomic.Int64
	grantCacheBypass atomic.Int64

	sockSubmitted  atomic.Int64
	sockCompleted  atomic.Int64
	sockFailed     atomic.Int64
	sockRing       atomic.Int64
	sockBatches    atomic.Int64
	sockBatchedFDs atomic.Int64
	sockDrains     atomic.Int64

	restores       atomic.Int64
	upgrades       atomic.Int64
	cachePagesKept atomic.Int64
	attrsKept      atomic.Int64
	dirtyDropped   atomic.Int64
	sessionsKept   atomic.Int64
	repliesKept    atomic.Int64
	grantsKept     atomic.Int64
}

type mmapBinding struct {
	entry *kernel.FDEntry
	// file is the cached file the descriptor was bound to when mapped;
	// msync drops its pages even after the descriptor is closed.
	file  *fileCache
	pages int
}

// LayerStats counts routing outcomes and recovery events. It is a plain
// value-copy-safe struct: Stats() assembles it from the layer's atomic
// counters.
type LayerStats struct {
	Redirected    int
	HostExecuted  int
	Split         int
	Blocked       int
	BinderBridged int
	UIPassthrough int
	AppsKilled    int
	// Restarts counts guest swaps after CVM reboots (ReplaceGuest).
	Restarts int
	// TimedOut counts redirected calls abandoned at their deadline.
	TimedOut int
	// FailedFast counts calls rejected with EAGAIN in degraded mode.
	FailedFast int
	// HostDown counts calls refused because the container was dead.
	HostDown int
	// Cache holds the redirection-cache counters (zero when disabled).
	Cache CacheStats
	// Ring holds the async ring-transport counters — depth, doorbell
	// coalescing ratio, reaps, re-arms — zero when the synchronous page
	// channel is active (Options.RingDepth == 0).
	Ring marshal.RingStats
	// Grants holds the zero-copy grant-path counters (zero when
	// Options.GrantThreshold == 0).
	Grants GrantPathStats
	// Binder holds the binder fast-path counters — sessions, pipelined
	// transactions, reply-cache hits, restart drains — zero when both
	// Options.BinderSessions and BinderReplyCache are off.
	Binder BinderStats
	// Net holds the network fast-path counters — socket ops over the
	// ring, batched accept/epoll completions, restart drains.
	Net NetPathStats
	// Restore holds the snapshot-restore and live-upgrade counters.
	Restore RestoreStats
	// Policy counts the fixed dispatch decisions: transport, payload
	// strategy and cache.
	Policy PolicyStats
	// Fusion counts syscall-fusion outcomes — fused chains, link
	// accounting, cache/grant-served links, detector speculation — zero
	// when Options.FusionEnable (and AutoTune) are off.
	Fusion FusionStats
	// Epoch describes the epoch/drain protocol: advances, the boot
	// generation of the last advance, and the pinned participant order.
	Epoch EpochStats
}

// RestoreStats counts snapshot-restore and live-upgrade recoveries plus
// the warm state that survived each generation-aware reconciliation.
// Everything the Kept counters do not cover drains exactly as a cold
// restart would.
type RestoreStats struct {
	// Restores counts guest swaps after snapshot restores (RestoreGuest);
	// Upgrades counts live guest swaps under load (UpgradeGuest). Neither
	// increments Restarts.
	Restores int
	Upgrades int
	// CachePagesKept / AttrsKept count redirection-cache entries re-tagged
	// to the new boot generation (clean pages mirror the persistent
	// filesystem, which a restore does not rewind). DirtyDropped counts
	// buffered write extents discarded with crash semantics.
	CachePagesKept int
	AttrsKept      int
	DirtyDropped   int
	// SessionsKept / RepliesKept count binder sessions re-pinned and
	// cached replies re-tagged because they provably predate the
	// checkpoint; GrantsKept counts grant entries that survived because
	// their guest-side PTEs are inside the restored image.
	SessionsKept int
	RepliesKept  int
	GrantsKept   int
}

// DefaultCallDeadline bounds one redirected round-trip in sim time. It is
// far above any legitimate single-call cost (hundreds of microseconds)
// but small enough that a wedged container degrades interactivity, not
// usability.
const DefaultCallDeadline = 100 * time.Millisecond

// LayerConfig wires a Layer.
type LayerConfig struct {
	Host         *kernel.Kernel
	Guest        *kernel.Kernel
	CVM          *hypervisor.CVM
	Proxies      *proxy.Manager
	Transport    marshal.Transport
	Clock        *sim.Clock
	Model        sim.LatencyModel
	Trace        *sim.Trace
	KeepFSOnHost bool
	// CallDeadline overrides DefaultCallDeadline (0 keeps the default).
	CallDeadline time.Duration
	// RedirCache enables the host-side redirection cache (DESIGN.md §9).
	RedirCache bool
	// GrantTable and GrantThreshold enable the zero-copy grant path:
	// bulk I/O calls moving at least GrantThreshold bytes ship
	// scatter-gather descriptors over granted extents instead of chunked
	// copies. Both must be set; the path is off otherwise.
	GrantTable     *hypervisor.GrantTable
	GrantThreshold int
	// BinderSessions enables persistent binder sessions to CVM services
	// (DESIGN.md §12): first transaction pays a one-time setup, later
	// ones skip the guest lookup and cold wakeup.
	BinderSessions bool
	// BinderReplyCache enables the idempotent binder reply cache for
	// codes declared read-only at Register.
	BinderReplyCache bool
	// FusionEnable boots the syscall-fusion layer (DESIGN.md §17):
	// Layer.Chain fuses dependent call chains into linked ring
	// submissions, and the per-task pattern detector speculatively
	// fuses repeated send→recv pairs.
	FusionEnable bool
}

var _ kernel.Interceptor = (*Layer)(nil)

// NewLayer builds the Anception layer.
func NewLayer(cfg LayerConfig) (*Layer, error) {
	execCache, err := proxy.NewExecCache(cfg.Host.FS())
	if err != nil {
		return nil, err
	}
	deadline := cfg.CallDeadline
	if deadline <= 0 {
		deadline = DefaultCallDeadline
	}
	l := &Layer{
		host:         cfg.Host,
		cvm:          cfg.CVM,
		clock:        cfg.Clock,
		model:        cfg.Model,
		trace:        cfg.Trace,
		execCache:    execCache,
		keepFSOnHost: cfg.KeepFSOnHost,
		deadline:     deadline,
		mmapBindings: make(map[int]map[uint64]mmapBinding),
		frames:       make(chan *callFrame, frameListLen),
	}
	l.state.Store(&layerState{
		guest:     cfg.Guest,
		proxies:   cfg.Proxies,
		transport: cfg.Transport,
	})
	if cfg.RedirCache {
		l.cache = newRedirCache()
	}
	if cfg.GrantTable != nil && cfg.GrantThreshold > 0 {
		l.grants = newLayerGrants(cfg.GrantTable, cfg.GrantThreshold)
	}
	if cfg.BinderSessions || cfg.BinderReplyCache {
		gen := 1
		if cfg.CVM != nil {
			gen = cfg.CVM.Generation()
		}
		l.binder = newBinderFastPath(cfg.BinderSessions, cfg.BinderReplyCache, gen)
	}
	if cfg.FusionEnable {
		l.fusion = newLayerFusion()
	}
	// Every fast path enrolls in the epoch protocol unconditionally —
	// a participant whose path is off no-ops, but the pinned order is
	// always complete (see AdvanceEpoch for the ordering rationale).
	// Fusion drains right after the ring: its speculative results were
	// produced through ring slots, so they are dropped as soon as the
	// ring is keyed to the new generation and before any participant
	// that could serve a call from them.
	l.epoch.participants = []epochParticipant{
		{"grants", func(int) { l.RevokeGrants() }},
		{"ring", l.rearmRing},
		{"fusion", l.drainFusion},
		{"sockets", l.DrainSockets},
		{"binder", l.drainBinder},
		{"cache", l.invalidateRedirCache},
	}
	if ls, ok := cfg.Transport.(marshal.LivenessSetter); ok {
		ls.SetLiveness(l.guestAlive)
	}
	return l, nil
}

// rearmRing is the ring's epoch participant: slots submitted against
// the old container complete with EHOSTDOWN instead of leaking (or
// executing against the fresh guest).
func (l *Layer) rearmRing(gen int) {
	if ring, ok := l.currentState().transport.(marshal.AsyncTransport); ok {
		ring.Rearm(gen)
	}
}

// currentState loads the hot-path snapshot.
func (l *Layer) currentState() *layerState { return l.state.Load() }

// mutateState installs a modified copy of the snapshot. Writers serialize
// on mu; readers never block.
func (l *Layer) mutateState(f func(*layerState)) {
	l.mu.Lock()
	next := *l.state.Load()
	f(&next)
	l.state.Store(&next)
	l.mu.Unlock()
}

// guestKernel returns the current container kernel; the snapshot makes
// forwarding paths immune to a concurrent ReplaceGuest.
func (l *Layer) guestKernel() *kernel.Kernel { return l.currentState().guest }

// proxyMgr returns the current proxy manager.
func (l *Layer) proxyMgr() *proxy.Manager { return l.currentState().proxies }

// guestAlive is the liveness probe wired into the transport: it always
// reads the *current* guest, so it stays correct across CVM restarts.
func (l *Layer) guestAlive() bool {
	g := l.guestKernel()
	return g != nil && g.Panicked() == ""
}

// ReplaceGuest swaps in a freshly booted container kernel and proxy
// manager after a CVM restart. Stale mmap bindings are dropped, the
// redirection cache is invalidated wholesale (nothing cached against the
// old boot generation may ever be served), and stale remote descriptors
// in host tasks surface as EBADF on next use.
func (l *Layer) ReplaceGuest(guest *kernel.Kernel, proxies *proxy.Manager) {
	l.mutateState(func(s *layerState) {
		s.guest = guest
		s.proxies = proxies
	})
	l.mu.Lock()
	l.mmapBindings = make(map[int]map[uint64]mmapBinding)
	l.mu.Unlock()
	n := l.counters.restarts.Add(1)
	gen := int(n) + 1
	if l.cvm != nil {
		gen = l.cvm.Generation()
	}
	// One epoch advance drains every fast path's warm state in the
	// pinned order — nothing keyed to the old boot generation may ever
	// be served against the new one.
	l.AdvanceEpoch(gen)
	if l.trace != nil {
		l.trace.Record(sim.EvWatchdog, "guest replaced after CVM restart #%d", n)
	}
}

// enterGuestCall registers one container-bound call against the
// live-upgrade quiesce barrier and checks the fail-fast gate. It returns
// false — and the caller must fail with EAGAIN without touching the guest
// — when degraded mode is on (breaker open, or an upgrade gating
// submissions). The increment-then-recheck order pairs Dekker-style with
// SetDegraded-then-QuiesceGuestCalls on the quiescing side: once the gate
// is visible, a concurrent call either observed it here (and backed out)
// or its registration is visible to the quiescer, so no call can slip
// through unseen while the guest is being swapped.
func (l *Layer) enterGuestCall(st *layerState) bool {
	l.guestCalls.Add(1)
	if st.degraded || l.currentState().degraded {
		l.guestCalls.Add(-1)
		return false
	}
	return true
}

// exitGuestCall balances a successful enterGuestCall.
func (l *Layer) exitGuestCall() { l.guestCalls.Add(-1) }

// Inflight reports how many redirected calls are currently inside a
// guest-touching span. The fleet placement scheduler reads it as the
// shard's instantaneous load; it is also the quiesce barrier's count, so
// zero means a gated shard has fully drained.
func (l *Layer) Inflight() int64 { return l.guestCalls.Load() }

// QuiesceGuestCalls blocks until no redirected call is touching the
// container. The caller must gate new submissions first (SetDegraded(true))
// or this may never terminate. In-flight calls drain to completion —
// EAGAIN-retry for new arrivals, never EHOSTDOWN for in-flight ones —
// which is the graceful half of the live-upgrade contract.
func (l *Layer) QuiesceGuestCalls() {
	for l.guestCalls.Load() > 0 {
		runtime.Gosched()
	}
}

// RestoreGuest swaps in the guest rebuilt over a snapshot restore taken at
// takenAt. Unlike ReplaceGuest's wholesale drains, warm state provably
// unchanged since the checkpoint survives, generation-aware:
//
//   - redirection cache: clean pages and path attributes are re-tagged to
//     the new boot generation (they mirror the persistent filesystem,
//     which the restore does not rewind); buffered dirty extents are
//     dropped with crash semantics.
//   - binder fast path: sessions opened and replies stored at or before
//     takenAt are re-pinned/re-tagged (their guest-side state is inside
//     the restored image); later ones drain as a restart would.
//   - grants: entries issued at or before takenAt survive at their
//     original generation so the owning call's deferred revoke retires
//     them; later entries are swept.
//   - ring: re-armed to the new generation exactly as after a restart —
//     slots in flight against the crashed guest still fail EHOSTDOWN.
func (l *Layer) RestoreGuest(guest *kernel.Kernel, proxies *proxy.Manager, takenAt time.Duration) {
	l.reconcileWarmState(guest, proxies, takenAt, false)
}

// UpgradeGuest swaps in a replacement guest under load (live CVM
// upgrade). Callers must have gated and quiesced first (SetDegraded,
// QuiesceGuestCalls, ring Quiesce); with takenAt the moment of the
// pre-swap checkpoint, essentially all warm state survives.
func (l *Layer) UpgradeGuest(guest *kernel.Kernel, proxies *proxy.Manager, takenAt time.Duration) {
	l.reconcileWarmState(guest, proxies, takenAt, true)
}

func (l *Layer) reconcileWarmState(guest *kernel.Kernel, proxies *proxy.Manager, takenAt time.Duration, upgrade bool) {
	l.mutateState(func(s *layerState) {
		s.guest = guest
		s.proxies = proxies
	})
	// mmap bindings reference guest descriptors of the old proxy set; like
	// any post-restart remote descriptor they surface EBADF on next use.
	l.mu.Lock()
	l.mmapBindings = make(map[int]map[uint64]mmapBinding)
	l.mu.Unlock()
	gen := 1
	if l.cvm != nil {
		gen = l.cvm.Generation()
	}
	if upgrade {
		l.counters.upgrades.Add(1)
	} else {
		l.counters.restores.Add(1)
	}
	pagesKept, attrsKept, dirtyDropped := l.rekeyRedirCache(gen)
	sessionsKept, repliesKept := l.reconcileBinder(guest, gen, takenAt)
	if ring, ok := l.currentState().transport.(marshal.AsyncTransport); ok {
		ring.Rearm(gen)
	}
	// Sockets inside the restored image survive, but their connect-time
	// policy check predates the swap: roll the stack generation so each
	// re-runs the current ConnectPolicy on next use.
	guest.Net().SetGeneration(uint64(gen))
	grantsKept := l.reconcileGrants(takenAt)
	l.counters.cachePagesKept.Add(int64(pagesKept))
	l.counters.attrsKept.Add(int64(attrsKept))
	l.counters.dirtyDropped.Add(int64(dirtyDropped))
	l.counters.sessionsKept.Add(int64(sessionsKept))
	l.counters.repliesKept.Add(int64(repliesKept))
	l.counters.grantsKept.Add(int64(grantsKept))
	if l.trace != nil {
		what := "snapshot restore"
		if upgrade {
			what = "live upgrade"
		}
		l.trace.Record(sim.EvSnapshot,
			"guest swapped (%s, gen %d): kept %d cache pages, %d attrs, %d sessions, %d replies, %d grants; dropped %d dirty extents",
			what, gen, pagesKept, attrsKept, sessionsKept, repliesKept, grantsKept, dirtyDropped)
	}
}

// reconcileGrants is the grant half of the warm-state reconciliation.
func (l *Layer) reconcileGrants(takenAt time.Duration) int {
	if l.grants == nil {
		return 0
	}
	kept, _ := l.grants.table.ReconcileRestore(takenAt)
	l.grants.clearLive()
	return kept
}

// Transport returns the current data-channel transport.
func (l *Layer) Transport() marshal.Transport { return l.currentState().transport }

// SetTransport swaps the data-channel transport — typically to wrap the
// live one in a fault injector. Liveness wiring is re-applied so the new
// transport keeps refusing calls to a dead container.
func (l *Layer) SetTransport(tr marshal.Transport) {
	if ls, ok := tr.(marshal.LivenessSetter); ok {
		ls.SetLiveness(l.guestAlive)
	}
	l.mutateState(func(s *layerState) { s.transport = tr })
}

// SetDegraded toggles the circuit-breaker fail-fast mode: while degraded,
// redirected calls return EAGAIN immediately instead of touching the
// container — and the redirection cache is never consulted. Host-class
// and UI paths are unaffected.
func (l *Layer) SetDegraded(on bool) {
	changed := false
	l.mutateState(func(s *layerState) {
		changed = s.degraded != on
		s.degraded = on
	})
	if changed && l.trace != nil {
		if on {
			l.trace.Record(sim.EvWatchdog, "circuit breaker open: redirected classes fail fast with EAGAIN")
		} else {
			l.trace.Record(sim.EvWatchdog, "circuit breaker closed: redirection restored")
		}
	}
}

// Degraded reports whether fail-fast mode is active.
func (l *Layer) Degraded() bool { return l.currentState().degraded }

// Deadline returns the per-call sim-time budget.
func (l *Layer) Deadline() time.Duration { return l.deadline }

// heartbeatPayload is the fixed Ping echo body; a package-level value (and
// a named handler below) keeps the steady-state heartbeat allocation-free.
var heartbeatPayload = []byte("anception-heartbeat")

func echoHeartbeat(req []byte) []byte { return req }

// Ping sends a heartbeat over the data channel: an identity-echo
// round-trip that exercises the transport, both world switches, and the
// liveness check without touching any proxy. The supervisor uses the
// error to distinguish a healthy container (nil), a dead one (EHOSTDOWN),
// a wedged or lossy one (ETIMEDOUT), and a corrupting one (EIO). Ping
// deliberately ignores degraded mode so a half-open breaker can probe.
func (l *Layer) Ping() error {
	// The heartbeat belongs to no task: its own time is every charge no
	// task's lane claimed while it was in flight.
	span := l.clock.StartSpan(nil)
	resp, err := l.currentState().transport.RoundTrip(nil, heartbeatPayload, echoHeartbeat)
	if err != nil {
		if errors.Is(err, marshal.ErrHang) {
			if elapsed := span.Elapsed(); elapsed < l.deadline {
				l.clock.Advance(l.deadline - elapsed)
			}
			return fmt.Errorf("heartbeat hung past %v deadline: %w", l.deadline, abi.ETIMEDOUT)
		}
		return err
	}
	if elapsed := span.Elapsed(); elapsed > l.deadline {
		return fmt.Errorf("heartbeat completed past %v deadline: %w", l.deadline, abi.ETIMEDOUT)
	}
	if !bytes.Equal(resp, heartbeatPayload) {
		return fmt.Errorf("heartbeat echo corrupted: %w", abi.EIO)
	}
	return nil
}

// SetResultTampering installs a hook that rewrites every marshaled result
// coming back from the container — the Iago attack surface of a fully
// compromised CVM (Section VII): it can return arbitrary bad system-call
// results but can never touch host memory directly. Pass nil to clear.
func (l *Layer) SetResultTampering(f func([]byte) []byte) {
	l.mutateState(func(s *layerState) { s.tamper = f })
}

// Stats returns a copy of the routing counters.
func (l *Layer) Stats() LayerStats {
	s := LayerStats{
		Redirected:    int(l.counters.redirected.Load()),
		HostExecuted:  int(l.counters.hostExecuted.Load()),
		Split:         int(l.counters.split.Load()),
		Blocked:       int(l.counters.blocked.Load()),
		BinderBridged: int(l.counters.binderBridged.Load()),
		UIPassthrough: int(l.counters.uiPassthrough.Load()),
		AppsKilled:    int(l.counters.appsKilled.Load()),
		Restarts:      int(l.counters.restarts.Load()),
		TimedOut:      int(l.counters.timedOut.Load()),
		FailedFast:    int(l.counters.failedFast.Load()),
		HostDown:      int(l.counters.hostDown.Load()),
	}
	if l.cache != nil {
		s.Cache = l.cache.snapshot()
	}
	if ring, ok := l.currentState().transport.(marshal.AsyncTransport); ok {
		s.Ring = ring.RingStats()
	}
	s.Grants = l.GrantStats()
	s.Binder = l.BinderStats()
	s.Net = l.NetStats()
	s.Restore = RestoreStats{
		Restores:       int(l.counters.restores.Load()),
		Upgrades:       int(l.counters.upgrades.Load()),
		CachePagesKept: int(l.counters.cachePagesKept.Load()),
		AttrsKept:      int(l.counters.attrsKept.Load()),
		DirtyDropped:   int(l.counters.dirtyDropped.Load()),
		SessionsKept:   int(l.counters.sessionsKept.Load()),
		RepliesKept:    int(l.counters.repliesKept.Load()),
		GrantsKept:     int(l.counters.grantsKept.Load()),
	}
	s.Policy = l.policy.snapshot()
	s.Fusion = l.fusionStats()
	s.Epoch = l.epochStats()
	return s
}

// Intercept implements kernel.Interceptor: it admits the call and
// dispatches it on the admitted route. Returning handled=false lets the
// host kernel dispatch the call locally, with its own Args: no path here
// changes args before declining a call.
func (l *Layer) Intercept(k *kernel.Kernel, t *kernel.Task, args kernel.Args) (kernel.Result, bool) {
	adm := l.admit(t, &args, false)
	switch adm.Route {
	case redirect.RouteKill:
		// e.g. a zygote/adbd setuid failure left the app running as root.
		return l.kill(t, "sandboxed task running as root"), true
	case redirect.RouteBlocked:
		l.counters.blocked.Add(1)
		if l.trace != nil {
			l.trace.Record(sim.EvSecurity, "anception blocked %s from pid=%d", args.Nr, t.PID)
		}
		return kernel.Result{Ret: -1, Err: abi.EPERM}, true
	case redirect.RouteSplit:
		l.counters.split.Add(1)
		return l.handleSplit(t, &args), true
	case redirect.RouteHost:
		if args.Nr == abi.SysIoctl {
			return l.handleHostIoctl(t, &args)
		}
		l.counters.hostExecuted.Add(1)
		return kernel.Result{}, false
	}
	return l.handleRedirectClass(t, &args, adm.Path), true
}

// handleRedirectClass dispatches a call admitted to the container: every
// descriptor it names is remote, and p is the admitted absolute path of a
// path-named call.
func (l *Layer) handleRedirectClass(t *kernel.Task, args *kernel.Args, p string) kernel.Result {
	// Send→recv speculation first: serve a recv answered by an earlier
	// speculative pair, and let the detector fuse a confident send.
	if l.fusion != nil {
		if res, ok := l.fusionIntercept(t, args); ok {
			return res
		}
	}
	switch args.Nr {
	case abi.SysOpen, abi.SysOpenat, abi.SysCreat:
		fwd := *args
		fwd.Path = p
		res := l.forwardWithFDResult(t, &fwd)
		if res.Ok() {
			flags := args.OpenFlags()
			l.noteRemoteOpen(p, flags)
			if e := t.FD(res.FD); e != nil && e.Kind == kernel.FDRemote {
				e.Flags = flags
				l.bindFD(t, e, nil)
			}
		}
		return res

	case abi.SysIoctl:
		fwd := *args
		fwd.FD = t.FD(args.FD).GuestFD
		return l.forward(t, &fwd)

	case abi.SysClose:
		e := t.FD(args.FD)
		st := l.currentState()
		var flushRes kernel.Result
		var flushFailed bool
		if !l.cacheBypassed(st) {
			flushRes, flushFailed = l.flushFDFor(st, t, e)
		}
		fwd := *args
		fwd.FD = e.GuestFD
		res := l.forwardOn(st, t, &fwd)
		t.CloseFD(args.FD)
		l.forgetFD(e)
		if flushFailed {
			// close reports the deferred write-back error, like a kernel
			// flushing dirty pages at last close.
			return flushRes
		}
		return res

	case abi.SysDup, abi.SysDup2:
		e := t.FD(args.FD)
		st := l.currentState()
		if !l.cacheBypassed(st) {
			// The duplicate shares the guest-side file; write back any
			// buffered data so both views start coherent.
			if res, failed := l.flushFDFor(st, t, e); failed {
				return res
			}
		}
		fwd := *args
		fwd.Nr = abi.SysDup
		fwd.FD = e.GuestFD
		res := l.forwardOn(st, t, &fwd)
		if !res.Ok() {
			return res
		}
		entry := &kernel.FDEntry{Kind: kernel.FDRemote, GuestFD: res.FD, Path: e.Path, Flags: e.Flags}
		l.bindFD(t, entry, e)
		if args.Nr == abi.SysDup2 {
			t.InstallFDAt(args.FD2, entry)
			return kernel.Result{Ret: int64(args.FD2), FD: args.FD2}
		}
		hostFD := t.InstallFD(entry)
		return kernel.Result{Ret: int64(hostFD), FD: hostFD}

	case abi.SysAccept:
		fwd := *args
		fwd.FD = t.FD(args.FD).GuestFD
		fwd.Path = "sock:accepted"
		return l.forwardWithFDResult(t, &fwd)

	case abi.SysAccept4:
		return l.handleAccept4(t, args)

	case abi.SysEpollCreate:
		fwd := *args
		fwd.Path = "epoll:"
		return l.forwardWithFDResult(t, &fwd)

	case abi.SysEpollCtl:
		return l.handleEpollCtl(t, args)

	case abi.SysEpollWait:
		return l.handleEpollWait(t, args)

	case abi.SysSendfile:
		return l.handleSendfile(t, args)

	case abi.SysSocket:
		fwd := *args
		fwd.Path = "sock:"
		return l.forwardWithFDResult(t, &fwd)

	case abi.SysPipe:
		res := l.forward(t, args)
		if !res.Ok() {
			return res
		}
		readFD := t.InstallFD(&kernel.FDEntry{Kind: kernel.FDRemote, GuestFD: int(res.Ret), Path: "pipe:r"})
		writeFD := t.InstallFD(&kernel.FDEntry{Kind: kernel.FDRemote, GuestFD: res.FD, Path: "pipe:w"})
		return kernel.Result{Ret: int64(readFD), FD: writeFD}

	case abi.SysStat, abi.SysAccess, abi.SysMkdir, abi.SysMkdirat,
		abi.SysRmdir, abi.SysUnlink, abi.SysReadlink, abi.SysChmod,
		abi.SysChown, abi.SysTruncate, abi.SysGetdents, abi.SysStatfs,
		abi.SysMknod:
		fwd := *args
		fwd.Path = p
		st := l.currentState()
		if !l.cacheBypassed(st) {
			if res, handled := l.cachedPathCall(st, t, &fwd, p); handled {
				return res
			}
		}
		res := l.forwardOn(st, t, &fwd)
		l.notePathResult(t, &fwd, p, res)
		return res

	case abi.SysRename, abi.SysLink:
		fwd := *args
		fwd.Path = p
		fwd.Path2 = l.absPath(t, args.Path2)
		st := l.currentState()
		if !l.cacheBypassed(st) {
			l.cachedPathCall(st, t, &fwd, p)
		}
		res := l.forwardOn(st, t, &fwd)
		l.notePathResult(t, &fwd, p, res)
		return res

	case abi.SysSymlink:
		// Path is the target (uninterpreted), Path2 the link location.
		fwd := *args
		fwd.Path2 = p
		res := l.forward(t, &fwd)
		l.notePathResult(t, &fwd, p, res)
		return res
	}
	if !namesFD(args.Nr) {
		// Redirect-class calls with no special handling run in the CVM.
		return l.forward(t, args)
	}
	// A plain descriptor call: I/O, attributes, socket ops.
	e := t.FD(args.FD)
	st := l.currentState()
	// Zero-copy cutover: bulk calls ship grants instead of copies.
	if l.grantEligible(args) {
		return l.forwardGrantFD(st, t, e, args)
	}
	// Socket ops take the network fast path: compact sockop frames over
	// the ring, with the Submitted=Completed+Failed identity.
	if isSockCall(args.Nr) {
		fwd := *args
		fwd.FD = e.GuestFD
		res := l.forwardSock(st, t, &fwd)
		writeBackOther(args, res)
		return res
	}
	if !l.cacheBypassed(st) {
		if res, handled := l.cachedFDCall(st, t, e, args); handled {
			return res
		}
	}
	fwd := *args
	fwd.FD = e.GuestFD
	res := l.forwardOn(st, t, &fwd)
	l.noteForwardedFDOp(e, args.Nr)
	writeBackOther(args, res)
	return res
}

// handleHostIoctl applies principle 2 to an ioctl on a host descriptor:
// UI transactions pass through to the host, and binder transactions to
// CVM-resident services are bridged.
func (l *Layer) handleHostIoctl(t *kernel.Task, args *kernel.Args) (kernel.Result, bool) {
	e := t.FD(args.FD)
	binderFD := e != nil && e.Kind == kernel.FDFile && e.File.IsDevice() && e.File.Device().DevName() == "binder"
	if binderFD && args.Request == binder.IocWaitInputEvent {
		// Listing 1's IOC_WAIT_INPUT_EVT: always a UI operation.
		l.counters.uiPassthrough.Add(1)
		return kernel.Result{}, false
	}
	if binderFD && args.Request == binder.IocTransact {
		// Decode exactly once; routing (UI test, guest lookup) and the
		// bridge both work from this Transaction. The guest dispatches
		// via TransactDecoded, so the bytes are never re-parsed.
		txn, err := binder.DecodeTransaction(args.Buf)
		if err != nil {
			// Malformed frame: let the host driver report EINVAL.
			return kernel.Result{}, false
		}
		if svc := l.host.Binder().Lookup(txn.Service); svc != nil && svc.UI {
			l.counters.uiPassthrough.Add(1)
			return kernel.Result{}, false // native-speed UI path
		}
		// Not a host UI service: if the target lives in the CVM, bridge
		// the transaction across the boundary (the +19 ms path, or the
		// session fast path when enabled).
		st := l.currentState()
		if g := st.guest; g.Panicked() == "" && g.Binder().Lookup(txn.Service) != nil {
			return l.bridgeBinder(st, t, args, txn), true
		}
		// Unknown service: let the host driver report the dead ref.
		return kernel.Result{}, false
	}
	l.counters.hostExecuted.Add(1)
	return kernel.Result{}, false
}

// sendfileBounceLimit bounds the staging buffer of a mixed-locality
// sendfile: the copy loop runs in DefaultChunkSize multiples instead of
// allocating args.Size bytes up front (a hostile app could pass 1 GiB).
const sendfileBounceLimit = 16 * marshal.DefaultChunkSize

// handleSendfile forwards sendfile when both descriptors live in the CVM;
// the common exploit shape (socket + data file) always does.
func (l *Layer) handleSendfile(t *kernel.Task, args *kernel.Args) kernel.Result {
	out := t.FD(args.FD)
	in := t.FD(args.FD2)
	if out == nil || in == nil {
		return kernel.Result{Ret: -1, Err: abi.EBADF}
	}
	st := l.currentState()
	if !l.cacheBypassed(st) {
		// The guest reads in and writes out directly: the cache writes
		// back what it buffered for either file first.
		for _, e := range [2]*kernel.FDEntry{in, out} {
			if res, failed := l.flushFDFor(st, t, e); failed {
				return res
			}
		}
	}
	if out.Kind == kernel.FDRemote && in.Kind == kernel.FDRemote {
		fwd := *args
		fwd.FD = out.GuestFD
		fwd.FD2 = in.GuestFD
		res := l.forwardOn(st, t, &fwd)
		if res.Ok() {
			l.noteFileWrite(l.fileOf(out))
		}
		return res
	}
	// Mixed locality: stage through a bounded bounce buffer, chunking the
	// read/write loop so the allocation never exceeds sendfileBounceLimit
	// no matter how large the requested Size is. When the grant path is
	// enabled, the remote legs grant the staging buffer instead of
	// chunk-copying it through the channel: the guest reads/fills the
	// pinned pages in place and each leg's channel cost stops scaling
	// with the chunk size.
	bufSize := args.Size
	if bufSize > sendfileBounceLimit {
		bufSize = sendfileBounceLimit
	}
	if bufSize < 0 {
		return kernel.Result{Ret: -1, Err: abi.EINVAL}
	}
	buf := make([]byte, bufSize)
	var total int64
	remaining := args.Size
	for remaining > 0 {
		n := remaining
		if n > len(buf) {
			n = len(buf)
		}
		readRes := l.sendfileLeg(st, t, in, kernel.Args{Nr: abi.SysRead, FD: args.FD2, Buf: buf[:n]})
		if !readRes.Ok() {
			if total > 0 {
				return kernel.Result{Ret: total}
			}
			return readRes
		}
		if readRes.Ret == 0 {
			break // source exhausted
		}
		chunk := readRes.Data
		if len(chunk) == 0 {
			chunk = buf[:readRes.Ret]
		}
		writeArgs := kernel.Args{Nr: abi.SysWrite, FD: args.FD, Buf: chunk}
		if out.Kind == kernel.FDRemote && strings.HasPrefix(out.Path, "sock:") {
			// sendfile -> socket: the outbound leg is a send, so a big
			// enough chunk rides the grant path and the guest transmits
			// straight out of the pinned staging pages — no second copy.
			writeArgs.Nr = abi.SysSend
		}
		writeRes := l.sendfileLeg(st, t, out, writeArgs)
		if writeRes.Ok() && out.Kind == kernel.FDRemote && writeArgs.Nr == abi.SysWrite {
			// The write went around the redirection cache.
			l.noteFileWrite(l.fileOf(out))
		}
		if !writeRes.Ok() {
			if total > 0 {
				return kernel.Result{Ret: total}
			}
			return writeRes
		}
		total += writeRes.Ret
		remaining -= int(readRes.Ret)
		if int(readRes.Ret) < n {
			break // short read: end of source
		}
	}
	return kernel.Result{Ret: total}
}

// sendfileLeg runs one leg of a mixed-locality sendfile where its
// descriptor lives; a remote leg at GrantThreshold rides the grant path.
func (l *Layer) sendfileLeg(st *layerState, t *kernel.Task, e *kernel.FDEntry, a kernel.Args) kernel.Result {
	if e.Kind != kernel.FDRemote {
		return l.host.InvokeLocal(t, a)
	}
	a.FD = e.GuestFD
	if l.grantEligible(&a) {
		return l.forwardGrant(st, t, &a)
	}
	return l.forwardOn(st, t, &a)
}

// forward marshals one call, moves it over the transport, executes it in
// the proxy's context inside the CVM, and unmarshals the result.
func (l *Layer) forward(t *kernel.Task, args *kernel.Args) kernel.Result {
	return l.forwardOn(l.currentState(), t, args)
}

// forwardOn is forward against an already-loaded state snapshot: the hot
// path loads the snapshot exactly once per intercepted call. Every
// forwarded call runs under the layer's sim-clock deadline: a hung or
// lossy transport surfaces as ETIMEDOUT at the deadline instead of
// blocking the app forever, and a dead container as EHOSTDOWN.
//
// A device mounts one data channel: a mounted ring serves every call.
func (l *Layer) forwardOn(st *layerState, t *kernel.Task, args *kernel.Args) kernel.Result {
	if ring, ok := st.transport.(marshal.AsyncTransport); ok {
		l.policy.ringChosen.Add(1)
		return l.forwardRing(st, ring, t, args)
	}
	return l.forwardSyncOn(st, t, args)
}

// forwardSyncOn moves one call over the synchronous channel.
func (l *Layer) forwardSyncOn(st *layerState, t *kernel.Task, args *kernel.Args) kernel.Result {
	if !l.enterGuestCall(st) {
		l.counters.failedFast.Add(1)
		return kernel.Result{Ret: -1, Err: fmt.Errorf("container circuit breaker open: %w", abi.EAGAIN)}
	}
	defer l.exitGuestCall()
	p, err := st.proxies.Ensure(t)
	if err != nil {
		if errors.Is(err, abi.EHOSTDOWN) {
			l.counters.hostDown.Add(1)
		}
		return kernel.Result{Ret: -1, Err: fmt.Errorf("enroll proxy: %w", err)}
	}
	l.counters.redirected.Add(1)
	if l.trace != nil {
		l.trace.Record(sim.EvRedirect, "redirect %s pid=%d -> proxy %d", args.Nr, t.PID, p.PID)
	}

	f := l.getFrame()
	defer l.putFrame(f)
	f.encodeArgs(args)
	l.clock.Charge(t.Lane, time.Duration(len(f.req))*l.model.MarshalPerByte)

	f.st, f.proxy, f.drained = st, p, false
	span := l.clock.StartSpan(t.Lane)
	respBytes, terr := st.transport.RoundTrip(t.Lane, f.req, f.exec)
	if terr != nil {
		return l.transportFailure(t, args, span, terr)
	}
	// An injected (or modeled) delay can push a completed call past its
	// budget; the app sees ETIMEDOUT either way.
	if span.Elapsed() > l.deadline {
		l.counters.timedOut.Add(1)
		if l.trace != nil {
			l.trace.Record(sim.EvTimeout, "%s pid=%d completed past %v deadline", args.Nr, t.PID, l.deadline)
		}
		return kernel.Result{Ret: -1, Err: fmt.Errorf("call exceeded %v deadline: %w", l.deadline, abi.ETIMEDOUT)}
	}
	return decodeReply(respBytes, args)
}

// forwardBatch moves several calls to the guest in ONE transport
// round-trip (the redirection cache's coalesced flush): the payload is a
// batch frame, the proxy is dispatched once, and each call pays only its
// own guest-side trap entry. Results come back positionally.
func (l *Layer) forwardBatch(st *layerState, t *kernel.Task, calls []*kernel.Args) ([]kernel.Result, error) {
	if ring, ok := st.transport.(marshal.AsyncTransport); ok {
		return l.forwardBatchRing(st, ring, t, calls)
	}
	if !l.enterGuestCall(st) {
		l.counters.failedFast.Add(1)
		return nil, fmt.Errorf("container circuit breaker open: %w", abi.EAGAIN)
	}
	defer l.exitGuestCall()
	p, err := st.proxies.Ensure(t)
	if err != nil {
		if errors.Is(err, abi.EHOSTDOWN) {
			l.counters.hostDown.Add(1)
		}
		return nil, fmt.Errorf("enroll proxy: %w", err)
	}
	l.counters.redirected.Add(int64(len(calls)))
	if l.trace != nil {
		l.trace.Record(sim.EvRedirect, "redirect batch of %d calls pid=%d -> proxy %d", len(calls), t.PID, p.PID)
	}
	f := l.getFrame()
	defer l.putFrame(f)
	f.req = marshal.AppendArgsBatch(f.req[:0], calls)
	l.clock.Charge(t.Lane, time.Duration(len(f.req))*l.model.MarshalPerByte)

	span := l.clock.StartSpan(t.Lane)
	respBytes, terr := st.transport.RoundTrip(t.Lane, f.req, f.execBatch(st, p, false))
	if terr != nil {
		fail := l.transportFailure(t, calls[0], span, terr)
		return nil, fail.Err
	}
	if span.Elapsed() > l.deadline {
		l.counters.timedOut.Add(1)
		return nil, fmt.Errorf("batch exceeded %v deadline: %w", l.deadline, abi.ETIMEDOUT)
	}
	return decodeBatchReply(respBytes, calls)
}

// transportFailure converts a transport error into the app-visible errno:
// ErrHang charges the remaining deadline and becomes ETIMEDOUT; EHOSTDOWN
// passes through (counted); anything else is reported as-is.
func (l *Layer) transportFailure(t *kernel.Task, args *kernel.Args, span sim.Span, terr error) kernel.Result {
	if errors.Is(terr, marshal.ErrHang) {
		if elapsed := span.Elapsed(); elapsed < l.deadline {
			l.clock.Charge(t.Lane, l.deadline-elapsed)
		}
		l.counters.timedOut.Add(1)
		if l.trace != nil {
			l.trace.Record(sim.EvTimeout, "%s pid=%d abandoned at %v deadline", args.Nr, t.PID, l.deadline)
		}
		return kernel.Result{Ret: -1, Err: fmt.Errorf("data channel hung past %v deadline: %w", l.deadline, abi.ETIMEDOUT)}
	}
	if errors.Is(terr, abi.EHOSTDOWN) {
		l.counters.hostDown.Add(1)
	}
	return kernel.Result{Ret: -1, Err: fmt.Errorf("data channel: %w", terr)}
}

// forwardWithFDResult forwards a descriptor-creating call and installs a
// remote-descriptor entry in the host task for the returned guest fd.
func (l *Layer) forwardWithFDResult(t *kernel.Task, args *kernel.Args) kernel.Result {
	res := l.forward(t, args)
	if !res.Ok() || res.FD <= 0 {
		return res
	}
	hostFD := t.InstallFD(&kernel.FDEntry{
		Kind:    kernel.FDRemote,
		GuestFD: res.FD,
		Path:    args.Path,
	})
	return kernel.Result{Ret: int64(hostFD), FD: hostFD, Data: res.Data}
}

// isReadLike reports calls whose buffer argument is output-only.
func isReadLike(nr abi.SyscallNr) bool {
	switch nr {
	case abi.SysRead, abi.SysPread64, abi.SysRecv, abi.SysRecvfrom,
		abi.SysReadv, abi.SysPreadv:
		return true
	default:
		return false
	}
}

// writeBackOther copies the reply bytes of a non-read-like call (fstat,
// getsockopt) into the caller's buffer(s). Read-like replies were already
// landed there by the forward path (landReply).
func writeBackOther(args *kernel.Args, res kernel.Result) {
	if !res.Ok() || len(res.Data) == 0 || isReadLike(args.Nr) {
		return
	}
	if len(args.Iov) > 0 {
		scatterIntoIov(args.Iov, res.Data)
	} else if len(args.Buf) > 0 {
		copy(args.Buf, res.Data)
	}
}

// scatterIntoIov distributes a flattened read reply back across the
// caller's vector segments, in order.
func scatterIntoIov(iov [][]byte, data []byte) {
	for _, seg := range iov {
		if len(data) == 0 {
			return
		}
		n := copy(seg, data)
		data = data[n:]
	}
}

func (l *Layer) absPath(t *kernel.Task, p string) string {
	if strings.HasPrefix(p, "/") {
		return path.Clean(p)
	}
	return path.Join(t.CWD, p)
}
