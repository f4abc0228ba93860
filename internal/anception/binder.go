package anception

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/sim"
)

// The binder bridge fast path (DESIGN.md §12) amortizes the CVM penalty
// the same way the redirection cache, async ring, and grant path amortized
// file I/O:
//
//   - Persistent sessions: the first transaction to a CVM service pays
//     the full cold penalty plus a one-time BinderSessionSetup (proxy
//     enrollment + pinned guest handle); every later transaction skips
//     the guest name lookup and CVM wakeup and pays BinderSessionPerTxn.
//   - Ring pipelining: with an async ring transport, session traffic
//     rides SQ/CQ slots (coalesced doorbells, per-slot deadline,
//     EHOSTDOWN fail-fast on restart), executed in submission order by
//     the guest SQ poller.
//   - Idempotent reply cache: replies to codes declared read-only at
//     Register are cached keyed on (service, code, payload hash),
//     invalidated by any mutating transaction to the same service and
//     by boot-generation rollover, and bypassed in degraded mode.
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
	return &binderFastPath{
		sessions:   sessions,
		replyCache: replyCache,
		gen:        gen,
		handles:    make(map[string]binderSession),
		replies:    make(map[binderReplyKey]binderReply),
	}
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
// container. With the fast path off this is the paper's synchronous
// +19 ms bridge; with Options.BinderSessions it dispatches on a pinned
// session (ring-pipelined when the async ring is active), and with
// Options.BinderReplyCache idempotent replies are served host-side. txn
// is decoded from the frame's copy of the app's transaction, f.txn.
func (l *Layer) bridgeBinder(st *layerState, t *kernel.Task, f *callFrame, txn binder.Transaction) kernel.Result {
	g := st.guest
	if g.Panicked() != "" {
		if cur := l.currentState(); cur.degraded || cur.guest != g {
			// A live upgrade (or restart) gated the layer and took this
			// guest down after the call was routed to it: the call never
			// reached the container, so it is a retryable gated arrival,
			// not a dead container.
			l.counters.failedFast.Add(1)
			return kernel.Result{Ret: -1, Err: fmt.Errorf("binder bridge: container being replaced: %w", abi.EAGAIN)}
		}
		l.counters.hostDown.Add(1)
		return kernel.Result{Ret: -1, Err: fmt.Errorf("binder bridge: container down: %w", abi.EHOSTDOWN)}
	}
	fp := l.binder
	readOnly := false
	if fp != nil && fp.replyCache && !st.degraded {
		readOnly = !txn.Oneway && g.Binder().IsReadOnly(txn.Service, txn.Code)
		if !readOnly {
			// A mutating (or oneway) transaction may change anything the
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
		}
	}

	var res kernel.Result
	var gen int
	if fp != nil && fp.sessions {
		res, gen = l.bridgeBinderSession(st, t, f, txn)
	} else {
		if readOnly {
			// Pin the boot generation before dispatch so a restart that
			// races the transaction drops the reply instead of caching it
			// against the wrong container.
			fp.mu.Lock()
			gen = fp.gen
			fp.mu.Unlock()
		}
		res = l.bridgeBinderSync(st, t, f, txn)
	}
	if readOnly && res.Err == nil {
		fp.storeReply(replyKeyFor(txn), res.Data, gen, l.clock.Now())
	}
	return res
}

// bridgeBinderSync is the original uncached bridge: one synchronous CVM
// round-trip paying the full +19 ms penalty (Section VI-A). Its charging
// is what reproduces the paper's 31.0 -> 31.3 ms Table I rows, so it is
// byte-for-byte independent of every fast-path knob.
func (l *Layer) bridgeBinderSync(st *layerState, t *kernel.Task, f *callFrame, txn binder.Transaction) kernel.Result {
	l.counters.binderBridged.Add(1)
	l.clock.Charge(t.Lane, l.model.BinderTransaction+
		l.model.BinderCVMPenalty+
		time.Duration(len(f.txn))*l.model.BinderCVMPerByte)
	if l.trace != nil {
		l.trace.Record(sim.EvBinder, "bridged binder txn %q from pid=%d to CVM", txn.Service, t.PID)
	}
	out, err := st.guest.Binder().Transact(t.Cred, txn)
	if err != nil {
		return kernel.Result{Ret: -1, Err: err}
	}
	return kernel.Result{Data: out, Ret: int64(len(out))}
}

// bridgeBinderSession dispatches on a pinned session, opening one first if
// needed. Returns the boot generation the transaction ran against so the
// reply cache can pin its entry. Unlike the uncached bridge (which
// predates the circuit breaker and stays untouched), the fast path obeys
// degraded mode like the rest of the redirection machinery.
func (l *Layer) bridgeBinderSession(st *layerState, t *kernel.Task, f *callFrame, txn binder.Transaction) (kernel.Result, int) {
	fp := l.binder
	if !l.enterGuestCall(st) {
		l.counters.failedFast.Add(1)
		return kernel.Result{Ret: -1, Err: fmt.Errorf("container circuit breaker open: %w", abi.EAGAIN)}, 0
	}
	defer l.exitGuestCall()
	fp.submitted.Add(1)
	sid, gen, setup, err := l.ensureBinderSession(st, t, txn.Service)
	if err != nil {
		fp.failed.Add(1)
		if errors.Is(err, abi.EHOSTDOWN) {
			l.counters.hostDown.Add(1)
		}
		return kernel.Result{Ret: -1, Err: fmt.Errorf("binder session %q: %w", txn.Service, err)}, gen
	}
	l.counters.binderBridged.Add(1)
	fp.sessionTxns.Add(1)
	if txn.Oneway {
		fp.oneway.Add(1)
	}

	// Fixed cost: the first transaction still wakes the cold CVM (full
	// penalty; the one-time BinderSessionSetup was charged when the
	// session opened); established sessions pay only the pinned-dispatch
	// cost. Payload bytes cross the boundary either way.
	fixed := l.model.BinderSessionPerTxn
	if setup {
		fixed = l.model.BinderCVMPenalty
	}
	perByte := time.Duration(len(f.txn)) * l.model.BinderCVMPerByte

	if _, ok := st.transport.(marshal.AsyncTransport); ok {
		// The session fixed cost includes the synchronous world-switch
		// pair; on the ring those interrupts are the doorbell and reap,
		// charged by the ring itself and coalesced across slots — which
		// is where pipelined submitters pull ahead of sync sessions.
		pipeFixed := fixed - 2*l.model.WorldSwitch
		if pipeFixed < 0 {
			pipeFixed = 0
		}
		return l.bridgeBinderRing(st, t, f, txn, sid, pipeFixed+perByte), gen
	}

	l.clock.Charge(t.Lane, l.model.BinderTransaction+fixed+perByte)
	if l.trace != nil {
		l.trace.Record(sim.EvBinder, "session binder txn %q sid=%d from pid=%d", txn.Service, sid, t.PID)
	}
	out, err := st.guest.Binder().TransactSession(t.Cred, sid, txn.Code, txn.Payload, txn.Oneway)
	if err != nil {
		fp.failed.Add(1)
		return kernel.Result{Ret: -1, Err: err}, gen
	}
	fp.completed.Add(1)
	return kernel.Result{Data: out, Ret: int64(len(out))}, gen
}

// ensureBinderSession returns the pinned handle for a service, opening it
// on first use: proxy enrollment (the session's guest-side execution
// context) plus the guest OpenSession, charged one BinderSessionSetup.
func (l *Layer) ensureBinderSession(st *layerState, t *kernel.Task, service string) (sid uint32, gen int, setup bool, err error) {
	fp := l.binder
	fp.mu.Lock()
	gen = fp.gen
	if h, ok := fp.handles[service]; ok && h.gen == gen {
		fp.mu.Unlock()
		return h.id, gen, false, nil
	}
	fp.mu.Unlock()

	if _, err = st.proxies.Ensure(t); err != nil {
		return 0, gen, false, err
	}
	sid, err = st.guest.Binder().OpenSession(service)
	if err != nil {
		return 0, gen, false, err
	}
	l.clock.Charge(t.Lane, l.model.BinderSessionSetup)
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
	return sid, gen, true, nil
}

// bridgeBinderRing ships one session transaction through the forward
// core's binder arm, over the ring: host side pays the fixed session
// cost at submit, the guest-side service handling (BinderTransaction) is
// charged where the slot is served, and restarts fail the slot EHOSTDOWN
// via the ring's boot-generation check. A oneway transaction is served
// before the call returns like any other; only its reply is dropped, and
// a failure of the core reaches the caller. The session call is encoded
// from the frame's copy straight into its request.
func (l *Layer) bridgeBinderRing(st *layerState, t *kernel.Task, f *callFrame, txn binder.Transaction, sid uint32, hostCost time.Duration) kernel.Result {
	fp := l.binder
	fp.pipelined.Add(1)
	f.req = marshal.AppendBinderSession(f.req[:0], marshal.BinderSession{
		Session: sid, Code: txn.Code, Payload: txn.Payload, Oneway: txn.Oneway,
	})
	l.clock.Charge(t.Lane, hostCost)
	if l.trace != nil {
		l.trace.Record(sim.EvBinder, "pipelined binder txn %q sid=%d from pid=%d", txn.Service, sid, t.PID)
	}

	f.st, f.lane, f.cred, f.oneway = st, t.Lane, t.Cred, txn.Oneway
	results, err := l.forwardFrame(st, t, f, armBinder, &binderIoctl)
	if err != nil {
		fp.failed.Add(1)
		return kernel.Result{Ret: -1, Err: err}
	}
	fp.completed.Add(1)
	return results[0]
}

// execBinder is the guest handler of a binder session frame: decode it
// as views into req, charge the guest-side service handling where it
// runs, and transact on the pinned session with the submitter's
// credentials.
func (f *callFrame) execBinder(req []byte) []byte {
	sf, err := f.dec.BinderSession(req)
	if err != nil {
		return f.setReply(kernel.Result{Ret: -1, Err: abi.EINVAL})
	}
	l := f.layer
	l.clock.Charge(f.lane, l.model.BinderTransaction)
	out, err := f.st.guest.Binder().TransactSession(f.cred, sf.Session, sf.Code, sf.Payload, sf.Oneway)
	if err != nil {
		return f.setReply(kernel.Result{Ret: -1, Err: err})
	}
	return tampered(f.st, f.setReply(kernel.Result{Data: out, Ret: int64(len(out))}))
}
