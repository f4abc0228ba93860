package anception

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/binder"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/sim"
)

// The binder bridge (DESIGN.md §12): every transaction to a service
// delegated to the container is one round trip through the forward
// core's binder arm, so it meets the breaker gate, the deadline and the
// landing's reply check like any redirected call. On top of that the
// fast path amortizes the CVM penalty the way the redirection cache,
// async ring and grant path amortized file I/O:
//
//   - Persistent sessions: the first transaction to a CVM service pays
//     the full cold penalty plus a one-time BinderSessionSetup (the
//     guest's session open); every later transaction skips the guest
//     name lookup and CVM wakeup and pays BinderSessionPerTxn.
//   - Ring pipelining: with an async ring transport, session traffic
//     rides SQ/CQ slots (coalesced doorbells, per-slot deadline,
//     EHOSTDOWN fail-fast on restart), executed in submission order by
//     the guest SQ poller.
//   - Idempotent reply cache: replies to the caller-independent
//     transactions the host declares (android.CallerIndependent), never
//     the container, are cached keyed on (service, code, payload hash),
//     invalidated by any other transaction to the same service and by
//     boot-generation rollover, and bypassed in degraded mode.
//
// Everything here is opt-in (Options.BinderSessions / BinderReplyCache);
// with both off the bridge is the paper's synchronous +19 ms path.

// maxBinderReplies bounds the reply cache; past it the whole map is
// dropped (the PR 2 wholesale-eviction pattern — bounded memory beats
// cleverness for a cache this cheap to refill).
const maxBinderReplies = 256

// binderReplyKey addresses one cached reply.
type binderReplyKey struct {
	service string
	code    uint32
	hash    uint64
}

// binderReply is one cached reply, pinned to the boot generation it was
// produced against. storedAt lets restore-time reconciliation keep
// replies produced at or before the checkpoint (the service state they
// reflect is inside the restored image) and drop everything newer.
type binderReply struct {
	data     []byte
	gen      int
	storedAt time.Duration
}

// binderSession is a pinned guest handle, valid only for its generation.
// openedAt dates the enrollment for restore-time reconciliation: a
// session opened at or before the checkpoint has its guest-side state in
// the restored image and can be re-pinned without a fresh setup charge.
type binderSession struct {
	id       uint32
	gen      int
	openedAt time.Duration
}

// binderFastPath is the layer's session/cache state. Counters are atomic
// (read lock-free by Stats); the session and reply tables take mu.
type binderFastPath struct {
	sessions   bool
	replyCache bool
	// cacheable is the host's set of caller-independent transactions,
	// fixed at boot (tests widen it through Layer.declareCacheable).
	cacheable map[android.BinderCode]bool

	mu      sync.Mutex
	gen     int
	handles map[string]binderSession
	replies map[binderReplyKey]binderReply

	sessionsOpened  atomic.Int64
	sessionTxns     atomic.Int64
	pipelined       atomic.Int64
	oneway          atomic.Int64
	replyHits       atomic.Int64
	replyStores     atomic.Int64
	invalidations   atomic.Int64
	drainedSessions atomic.Int64
	submitted       atomic.Int64
	completed       atomic.Int64
	failed          atomic.Int64
}

// BinderStats snapshots the fast path's counters (all zero when the fast
// path is disabled).
type BinderStats struct {
	// SessionsOpened counts one-time session setups (BinderSessionSetup
	// charges); SessionTxns counts transactions dispatched on an
	// established session, of which Pipelined rode async ring slots.
	SessionsOpened int
	SessionTxns    int
	Pipelined      int
	// Oneway counts asynchronous (no-reply) transactions bridged.
	Oneway int
	// ReplyHits/ReplyStores/Invalidations are the idempotent reply
	// cache's counters; a mutating transaction to a service invalidates
	// every cached reply for that service.
	ReplyHits     int
	ReplyStores   int
	Invalidations int
	// DrainedSessions counts pinned handles dropped at CVM restart.
	DrainedSessions int
	// Submitted = Completed + Failed is the fast path's accounting
	// identity: every session-path transaction ends exactly one way.
	// (Reply-cache hits are served host-side and never submitted.)
	Submitted int
	Completed int
	Failed    int
}

func newBinderFastPath(sessions, replyCache bool, gen int) *binderFastPath {
	fp := &binderFastPath{
		sessions:   sessions,
		replyCache: replyCache,
		cacheable:  make(map[android.BinderCode]bool),
		gen:        gen,
		handles:    make(map[string]binderSession),
		replies:    make(map[binderReplyKey]binderReply),
	}
	for _, c := range android.CallerIndependent() {
		fp.cacheable[c] = true
	}
	return fp
}

// declareContainerService adds name to the host's set of container
// services, for tests that register a service in the guest, before the
// layer carries traffic.
func (l *Layer) declareContainerService(name string) {
	l.containerServices[name] = true
}

// declareCacheable adds (service, code) to the host's cacheable set, for
// tests, before the layer carries traffic.
func (l *Layer) declareCacheable(service string, code uint32) {
	l.binder.cacheable[android.BinderCode{Service: service, Code: code}] = true
}

func (fp *binderFastPath) snapshot() BinderStats {
	return BinderStats{
		SessionsOpened:  int(fp.sessionsOpened.Load()),
		SessionTxns:     int(fp.sessionTxns.Load()),
		Pipelined:       int(fp.pipelined.Load()),
		Oneway:          int(fp.oneway.Load()),
		ReplyHits:       int(fp.replyHits.Load()),
		ReplyStores:     int(fp.replyStores.Load()),
		Invalidations:   int(fp.invalidations.Load()),
		DrainedSessions: int(fp.drainedSessions.Load()),
		Submitted:       int(fp.submitted.Load()),
		Completed:       int(fp.completed.Load()),
		Failed:          int(fp.failed.Load()),
	}
}

// replyKeyFor keys a transaction's reply by service, code and the FNV-1a
// hash of its payload.
func replyKeyFor(txn binder.Transaction) binderReplyKey {
	h := uint64(14695981039346656037)
	for _, b := range txn.Payload {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return binderReplyKey{service: txn.Service, code: txn.Code, hash: h}
}

// lookupReply serves a cached reply if one exists for the current boot
// generation.
func (fp *binderFastPath) lookupReply(key binderReplyKey) ([]byte, bool) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	r, ok := fp.replies[key]
	if !ok || r.gen != fp.gen {
		return nil, false
	}
	return r.data, true
}

// storeReply caches a read-only reply, dropping the whole map if it
// outgrows its bound.
func (fp *binderFastPath) storeReply(key binderReplyKey, data []byte, gen int, at time.Duration) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if gen != fp.gen {
		return // produced against a container that no longer exists
	}
	if len(fp.replies) >= maxBinderReplies {
		fp.replies = make(map[binderReplyKey]binderReply)
	}
	fp.replies[key] = binderReply{data: append([]byte(nil), data...), gen: gen, storedAt: at}
	fp.replyStores.Add(1)
}

// invalidateService drops every cached reply for one service (a mutating
// transaction may have changed anything the service would answer).
func (fp *binderFastPath) invalidateService(service string) int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	n := 0
	for k := range fp.replies {
		if k.service == service {
			delete(fp.replies, k)
			n++
		}
	}
	if n > 0 {
		fp.invalidations.Add(int64(n))
	}
	return n
}

// drainBinder rolls the fast path to a new boot generation: every pinned
// session handle and cached reply died with the old container. Called
// from ReplaceGuest and the supervisor's BinderDrainer hook.
func (l *Layer) drainBinder(gen int) {
	fp := l.binder
	if fp == nil {
		return
	}
	fp.mu.Lock()
	dropped := len(fp.handles)
	replies := len(fp.replies)
	if dropped > 0 {
		fp.handles = make(map[string]binderSession)
	}
	if replies > 0 {
		fp.replies = make(map[binderReplyKey]binderReply)
	}
	fp.gen = gen
	fp.mu.Unlock()
	fp.drainedSessions.Add(int64(dropped))
	if l.trace != nil && dropped+replies > 0 {
		l.trace.Record(sim.EvBinderSession,
			"drained %d binder sessions and %d cached replies at restart (gen %d)", dropped, replies, gen)
	}
}

// reconcileBinder is drainBinder's generation-aware sibling for snapshot
// restores: the guest that just came up carries every binder enrollment
// that existed when the checkpoint was taken at takenAt, so sessions
// opened at or before that moment are re-pinned on the new guest — the
// OpenSession re-derives the handle id from the restored service state,
// with NO BinderSessionSetup charge (the enrollment work is inside the
// image). Sessions opened after the checkpoint, and replies stored after
// it, reflect state the rewind erased; they drain exactly as a restart
// would. Returns (sessionsKept, repliesKept).
func (l *Layer) reconcileBinder(guest *kernel.Kernel, gen int, takenAt time.Duration) (sessionsKept, repliesKept int) {
	fp := l.binder
	if fp == nil {
		return 0, 0
	}
	fp.mu.Lock()
	oldHandles := fp.handles
	oldReplies := fp.replies
	fp.handles = make(map[string]binderSession)
	fp.replies = make(map[binderReplyKey]binderReply)
	fp.gen = gen
	dropped := 0
	for service, h := range oldHandles {
		if h.openedAt > takenAt {
			dropped++
			continue
		}
		sid, err := guest.Binder().OpenSession(service)
		if err != nil {
			// The restored image does not know this service after all
			// (e.g. it was registered post-checkpoint under a name that
			// predates it); treat like a drained session.
			dropped++
			continue
		}
		fp.handles[service] = binderSession{id: sid, gen: gen, openedAt: h.openedAt}
		sessionsKept++
	}
	droppedReplies := 0
	for k, r := range oldReplies {
		if r.storedAt > takenAt {
			droppedReplies++
			continue
		}
		r.gen = gen
		fp.replies[k] = r
		repliesKept++
	}
	fp.mu.Unlock()
	fp.drainedSessions.Add(int64(dropped))
	if l.trace != nil {
		l.trace.Record(sim.EvBinderSession,
			"restore-reconcile: %d sessions re-pinned, %d replies kept; dropped %d sessions, %d replies (gen %d)",
			sessionsKept, repliesKept, dropped, droppedReplies, gen)
	}
	return sessionsKept, repliesKept
}

// BinderStats snapshots the fast-path counters (zero value when the fast
// path is disabled).
func (l *Layer) BinderStats() BinderStats {
	if l.binder == nil {
		return BinderStats{}
	}
	return l.binder.snapshot()
}

// bridgeBinder relays a binder transaction to a service delegated to the
// container, serving it from the reply cache when the host declared it
// caller-independent and a reply is cached. txn is decoded from the
// frame's copy of the app's transaction, f.txn.
func (l *Layer) bridgeBinder(st *layerState, t *kernel.Task, f *callFrame, txn binder.Transaction) kernel.Result {
	fp := l.binder
	cacheable := false
	var gen int
	if fp != nil && fp.replyCache && !st.degraded {
		cacheable = !txn.Oneway && fp.cacheable[android.BinderCode{Service: txn.Service, Code: txn.Code}]
		if !cacheable {
			// Any other (or oneway) transaction may change anything the
			// service would answer: invalidate before dispatch, so even a
			// failed attempt can't leave a stale reply servable.
			if n := fp.invalidateService(txn.Service); n > 0 && l.trace != nil {
				l.trace.Record(sim.EvBinderSession, "invalidated %d cached replies for %q (mutating code %d)",
					n, txn.Service, txn.Code)
			}
		} else {
			key := replyKeyFor(txn)
			if data, ok := fp.lookupReply(key); ok {
				// Served host-side: no CVM transaction at all. The app
				// pays the cache probe plus moving the bytes, the same
				// shape as a redirection-cache read hit.
				fp.replyHits.Add(1)
				l.counters.binderBridged.Add(1)
				l.clock.Charge(t.Lane, l.model.CacheLookup+
					time.Duration(len(f.txn)+len(data))*l.model.MarshalPerByte)
				if l.trace != nil {
					l.trace.Record(sim.EvBinderSession, "reply cache hit %q code=%d (%d B)",
						txn.Service, txn.Code, len(data))
				}
				return kernel.Result{Data: append([]byte(nil), data...), Ret: int64(len(data))}
			}
			// Pin the boot generation before dispatch so a restart that
			// races the transaction drops the reply instead of caching it
			// against the wrong container.
			fp.mu.Lock()
			gen = fp.gen
			fp.mu.Unlock()
		}
	}
	res := l.transactBinder(st, t, f, txn)
	if cacheable && res.Err == nil {
		fp.storeReply(replyKeyFor(txn), res.Data, gen, l.clock.Now())
	}
	return res
}

// transactBinder runs txn in the container as one round trip through the
// forward core's binder arm: by service name, or with
// Options.BinderSessions on a pinned session, opened first if needed.
//
// Charging (DESIGN.md §12): on the synchronous channel a transaction
// costs its fitted figure, BinderTransaction plus the fixed cost (the
// cold BinderCVMPenalty, or BinderSessionPerTxn on an established
// session) plus BinderCVMPerByte per byte of the app's transaction. The
// figure already contains the channel's world switches and copies, so
// the core charges what the round trip left of it, and the Table I rows
// stay where the paper measured them. A session transaction on the ring
// pays a host share at submit instead: the fixed cost less the
// world-switch pair that the ring's doorbell and reap replace and
// coalesce across slots, which is where pipelined submitters pull ahead.
func (l *Layer) transactBinder(st *layerState, t *kernel.Task, f *callFrame, txn binder.Transaction) kernel.Result {
	fp := l.binder
	sessions := fp != nil && fp.sessions
	_, ring := st.transport.(marshal.AsyncTransport)
	fixed := l.model.BinderCVMPenalty
	var sid uint32
	if sessions {
		var setup bool
		var err error
		if sid, setup, err = l.ensureBinderSession(st, t, f, txn.Service); err != nil {
			if !errors.Is(err, errBreakerOpen) {
				fp.submitted.Add(1)
				fp.failed.Add(1)
			}
			return kernel.Result{Ret: -1, Err: fmt.Errorf("binder session %q: %w", txn.Service, err)}
		}
		if !setup {
			fixed = l.model.BinderSessionPerTxn
		}
		f.req = marshal.AppendBinderSession(f.req[:0], marshal.BinderSession{
			Session: sid, Code: txn.Code, Payload: txn.Payload, Oneway: txn.Oneway,
		})
	} else {
		f.req = marshal.AppendBinderFlat(f.req[:0], f.txn)
	}
	if l.trace != nil {
		l.trace.Record(sim.EvBinder, "bridged binder txn %q sid=%d from pid=%d", txn.Service, sid, t.PID)
	}
	perByte := time.Duration(len(f.txn)) * l.model.BinderCVMPerByte
	if sessions && ring {
		f.hostCost, f.fitted = max(fixed-2*l.model.WorldSwitch, 0)+perByte, 0
	} else {
		f.hostCost, f.fitted = 0, l.model.BinderTransaction+fixed+perByte
	}
	f.oneway = txn.Oneway
	results, err := l.forwardFrame(st, t, f, armBinder, &binderIoctl)
	if errors.Is(err, errBreakerOpen) {
		return kernel.Result{Ret: -1, Err: err}
	}
	l.counters.binderBridged.Add(1)
	if sessions {
		fp.submitted.Add(1)
		fp.sessionTxns.Add(1)
		if ring {
			fp.pipelined.Add(1)
		}
		if txn.Oneway {
			fp.oneway.Add(1)
		}
		if err != nil {
			fp.failed.Add(1)
		} else {
			fp.completed.Add(1)
		}
	}
	if err != nil {
		return kernel.Result{Ret: -1, Err: err}
	}
	return results[0]
}

// ensureBinderSession returns the pinned handle for a service, opening it
// on first use: the guest's session open, one round trip through the
// binder arm charged one BinderSessionSetup. setup reports a fresh open.
func (l *Layer) ensureBinderSession(st *layerState, t *kernel.Task, f *callFrame, service string) (sid uint32, setup bool, err error) {
	fp := l.binder
	fp.mu.Lock()
	gen := fp.gen
	h, ok := fp.handles[service]
	fp.mu.Unlock()
	if ok && h.gen == gen {
		return h.id, false, nil
	}

	f.req = marshal.AppendBinderOpen(f.req[:0], service)
	f.hostCost, f.fitted = 0, l.model.BinderSessionSetup
	f.oneway = false
	results, err := l.forwardFrame(st, t, f, armBinder, &binderIoctl)
	if err == nil {
		err = results[0].Err
	}
	if err != nil {
		return 0, false, err
	}
	sid = uint32(results[0].Ret)
	fp.sessionsOpened.Add(1)
	if l.trace != nil {
		l.trace.Record(sim.EvBinderSession, "opened session %q sid=%d (gen %d)", service, sid, gen)
	}
	fp.mu.Lock()
	// Only pin the handle if no restart rolled the generation while we
	// were opening; a stale handle must never survive into the new boot.
	if fp.gen == gen {
		fp.handles[service] = binderSession{id: sid, gen: gen, openedAt: l.clock.Now()}
	}
	fp.mu.Unlock()
	return sid, true, nil
}

// execBinder is the guest handler of a binder-call frame: decode it as
// views into req, then open a session, or transact by name or on a
// pinned session, charging the guest-side service handling
// (BinderTransaction) where it runs. The service sees the proxy's
// credentials: the proxy runs with the app's UID and executes the
// forwarded call (paper §III), so from.PID names the call's guest-side
// context, never a host pid that means another task in the container.
func (f *callFrame) execBinder(req []byte) []byte {
	c, err := f.dec.BinderCall(req)
	if err != nil {
		return f.setReply(kernel.Result{Ret: -1, Err: abi.EINVAL})
	}
	drv := f.st.guest.Binder()
	var res kernel.Result
	switch c.Kind {
	case marshal.BinderOpen:
		var sid uint32
		sid, err = drv.OpenSession(c.Txn.Service)
		res.Ret = int64(sid)
	case marshal.BinderOnSession:
		f.layer.clock.Charge(f.proxy.Lane, f.layer.model.BinderTransaction)
		res.Data, err = drv.TransactSession(f.proxy.Cred, c.Session, c.Txn.Code, c.Txn.Payload, c.Txn.Oneway)
	default:
		f.layer.clock.Charge(f.proxy.Lane, f.layer.model.BinderTransaction)
		res.Data, err = drv.Transact(f.proxy.Cred, c.Txn)
	}
	if err != nil {
		res = kernel.Result{Ret: -1, Err: err}
	} else if c.Kind != marshal.BinderOpen {
		res.Ret = int64(len(res.Data))
	}
	return tampered(f.st, f.setReply(res))
}
