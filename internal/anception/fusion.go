package anception

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/redirect"
	"anception/internal/sim"
)

// Syscall fusion (DESIGN.md §17): linked ring submissions execute
// dependent call chains guest-side in one round trip. A chain of N
// dependent calls — open→fstat→read→close is the canonical shape —
// normally pays N doorbell/reap round trips because each call needs the
// previous one's result (the descriptor, the file size, the byte
// offset). Fusion packs the whole chain into ONE ring slot with
// IO_LINK-style register bindings (FDFrom, UseCursor) resolved by the
// guest, so the chain costs one submit trap, one (coalesced) doorbell,
// and one completion.
//
// Two entry points share the machinery: the explicit Layer.Chain API
// (Proc.Chain), and a transparent per-task pattern detector hooked into
// the intercept path that recognizes send→recv and speculatively fuses
// the pair once it repeats. Either way every link is admitted
// (admit.go), and only a chain whose links all run in the container, and
// that the fused plan represents exactly (fusedLink), fuses.

// ChainCall is one link of a dependent chain submitted through
// Layer.Chain / Proc.Chain. Args fields are the usual per-call
// arguments; the two bindings resolve against earlier links:
//
//   - FDFrom >= 0 replaces Args.FD with the descriptor produced by
//     link FDFrom (its Result.FD, or Ret for fd-returning calls).
//     FDFrom == -1 uses Args.FD verbatim (a host descriptor).
//   - UseCursor offsets the link by the chain's running bytes-read
//     cursor, so consecutive reads walk a file without host-visible
//     offset bookkeeping.
type ChainCall struct {
	Args      kernel.Args
	FDFrom    int
	UseCursor bool
}

// FusionStats counts syscall-fusion outcomes, surfaced per shard via
// LayerStats.Fusion.
type FusionStats struct {
	// Explicit counts Layer.Chain invocations; Fallbacks counts chains
	// (explicit or speculative) served by per-call dispatch instead of
	// a fused submission.
	Explicit  int64
	Fallbacks int64
	// Chains counts fused wire submissions; Submitted/Completed/Failed
	// count their links with the epoch identity
	// Submitted = Completed + Failed (a link that never ran because an
	// earlier link failed — or the CVM died mid-chain — is Failed).
	Chains    int64
	Submitted int64
	Completed int64
	Failed    int64
	// CacheServed counts links served host-side by the redirection
	// cache and skipped from the wire chain; GrantLinks counts bulk
	// links peeled onto the zero-copy grant path.
	CacheServed int64
	GrantLinks  int64
	// PatternHits counts send→recv sightings; SpecServed counts recvs
	// answered from a speculative pair; SpecDropped counts speculative
	// recv results discarded (close with bytes pending, dry recv, epoch
	// roll). Mispredicts is always 0: send→recv speculation never
	// guesses a result it could throw away. It stays because
	// benchmark/harness.go reads it.
	PatternHits int64
	SpecServed  int64
	Mispredicts int64
	SpecDropped int64
}

// DefaultFusionMaxLinks bounds one fused submission; longer chains fall
// back to per-call dispatch. The wire codec caps harder at
// marshal.MaxChainLinks.
const DefaultFusionMaxLinks = 8

// fuseConfidence is how many consecutive pattern sightings the detector
// needs before it speculates.
const fuseConfidence = 2

// specKey addresses per-descriptor speculative state.
type specKey struct {
	pid int
	fd  int
}

// taskFusion is the per-task pattern detector state: the previous
// container-bound call and the send→recv confidence counter. All fields
// are plain ints under the layerFusion mutex — decisions are pure
// functions of call order, so runs with the same seed fuse identically.
type taskFusion struct {
	lastNr abi.SyscallNr

	sendRecv int // send followed by recv
	recvSize int // learned recv size for the speculative recv link
	// noSendRecv is set once a speculative recv came back empty: the
	// peer does not answer each send in time, so send→recv speculation
	// stays off for this task.
	noSendRecv bool
}

// layerFusion is the fusion layer's mutable state.
type layerFusion struct {
	mu     sync.Mutex
	tasks  map[int]*taskFusion
	sticky map[specKey][]byte // buffered speculative recv bytes

	explicit    atomic.Int64
	fallbacks   atomic.Int64
	chains      atomic.Int64
	submitted   atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	cacheServed atomic.Int64
	grantLinks  atomic.Int64
	patternHits atomic.Int64
	specServed  atomic.Int64
	specDropped atomic.Int64
}

func newLayerFusion() *layerFusion {
	return &layerFusion{
		tasks:  make(map[int]*taskFusion),
		sticky: make(map[specKey][]byte),
	}
}

// fusionStats snapshots the fusion counters.
func (l *Layer) fusionStats() FusionStats {
	f := l.fusion
	if f == nil {
		return FusionStats{}
	}
	return FusionStats{
		Explicit:    f.explicit.Load(),
		Fallbacks:   f.fallbacks.Load(),
		Chains:      f.chains.Load(),
		Submitted:   f.submitted.Load(),
		Completed:   f.completed.Load(),
		Failed:      f.failed.Load(),
		CacheServed: f.cacheServed.Load(),
		GrantLinks:  f.grantLinks.Load(),
		PatternHits: f.patternHits.Load(),
		SpecServed:  f.specServed.Load(),
		SpecDropped: f.specDropped.Load(),
	}
}

// drainFusion is fusion's epoch participant: sticky recv bytes were
// produced by the old container and may never be served against the new
// one. Detector confidence counters survive — they describe app
// behavior, not container state.
func (l *Layer) drainFusion(int) {
	f := l.fusion
	if f == nil {
		return
	}
	f.mu.Lock()
	for k, b := range f.sticky {
		if len(b) > 0 {
			f.specDropped.Add(1)
		}
		delete(f.sticky, k)
	}
	f.mu.Unlock()
}

// SetChainStep forwards a fault-drill hook to the current proxy
// manager: it fires before each fused chain link executes guest-side,
// so drills can kill the CVM between links K and K+1. Pass nil to
// clear. The hook does not survive a guest swap.
func (l *Layer) SetChainStep(f func(next int)) {
	l.currentState().proxies.SetChainStep(f)
}

// Chain executes a dependent call chain on behalf of a host task: fused
// into linked ring submissions when every link admits to the container
// and the transport allows, per-call dispatch otherwise, where each link
// is byte-identical to an unfused call.
func (l *Layer) Chain(t *kernel.Task, calls []ChainCall) []kernel.Result {
	if len(calls) == 0 {
		return nil
	}
	if err := validateChain(calls); err != nil {
		return failLinks(make([]kernel.Result, len(calls)), err)
	}
	if l.fusion != nil {
		l.fusion.explicit.Add(1)
	}
	if results, ok := l.tryFusedChain(t, calls, true); ok {
		return results
	}
	if l.fusion != nil {
		l.fusion.fallbacks.Add(1)
	}
	return runChainUnfused(func(a kernel.Args) kernel.Result {
		return l.host.Invoke(t, a)
	}, calls)
}

func validateChain(calls []ChainCall) error {
	if len(calls) > marshal.MaxChainLinks {
		return fmt.Errorf("chain of %d links exceeds %d: %w", len(calls), marshal.MaxChainLinks, abi.EINVAL)
	}
	for i := range calls {
		if calls[i].FDFrom < -1 || calls[i].FDFrom >= i {
			return fmt.Errorf("link %d: fd binding %d out of range: %w", i, calls[i].FDFrom, abi.EINVAL)
		}
	}
	return nil
}

// failLinks fails every link of results with err.
func failLinks(results []kernel.Result, err error) []kernel.Result {
	for i := range results {
		results[i] = kernel.Result{Ret: -1, Err: err}
	}
	return results
}

// runChainUnfused executes a chain one call at a time through the given
// dispatcher, resolving bindings host-side: FDFrom takes the earlier
// link's returned descriptor, UseCursor accumulates read returns. A
// failed link short-circuits the rest with its error. This is the
// fallback arm — on an anception device each call dispatches exactly
// like an unfused syscall.
func runChainUnfused(invoke func(kernel.Args) kernel.Result, calls []ChainCall) []kernel.Result {
	results := make([]kernel.Result, len(calls))
	var cursor int64
	var failErr error
	for i := range calls {
		if failErr != nil {
			results[i] = kernel.Result{Ret: -1, Err: failErr}
			continue
		}
		a := calls[i].Args
		if calls[i].FDFrom >= 0 {
			prev := results[calls[i].FDFrom]
			if prev.FD > 0 {
				a.FD = prev.FD
			} else {
				a.FD = int(prev.Ret)
			}
		}
		if calls[i].UseCursor {
			a.Off += cursor
		}
		if isReadLike(a.Nr) && len(a.Buf) == 0 && a.Size > 0 {
			a.Buf = make([]byte, a.Size)
		}
		res := invoke(a)
		results[i] = res
		if !res.Ok() {
			failErr = res.Err
			continue
		}
		if isReadLike(a.Nr) && res.Ret > 0 {
			cursor += res.Ret
		}
	}
	return results
}

// tryFusedChain runs the chain over linked ring submissions. ok=false
// means the caller must fall back to per-call dispatch: fusion off, no
// async ring, a chain longer than DefaultFusionMaxLinks, or a link that
// does not admit to the container or that the fused plan does not
// represent (fusedLink). screen passes the chain through the host's
// syscall entry (task state and detectors) before any link runs, and
// counts the links that ran, as per-call dispatch counts them; a
// speculated pair needs neither, because both of its calls trap when the
// app makes them.
func (l *Layer) tryFusedChain(t *kernel.Task, calls []ChainCall, screen bool) ([]kernel.Result, bool) {
	if l.fusion == nil || len(calls) > DefaultFusionMaxLinks {
		return nil, false
	}
	st := l.currentState()
	ring, async := st.transport.(marshal.AsyncTransport)
	if !async {
		return nil, false
	}
	var pathsArr [marshal.MaxChainLinks]string // admitted absolute paths
	paths := pathsArr[:len(calls)]
	for i := range calls {
		adm := l.admit(t, &calls[i].Args, calls[i].FDFrom >= 0)
		if adm.Route != redirect.RouteGuest || !fusedLink(calls[i].Args.Nr) {
			return nil, false
		}
		paths[i] = adm.Path
	}
	// Detectors see each link as submitted: a bound link's descriptor and
	// cursor offset resolve only in the container. Links before a vetoed
	// one run; it fails with the veto, unless an earlier link failed, and
	// the rest short-circuit, as per-call dispatch answers them.
	results := make([]kernel.Result, len(calls))
	ran, veto := len(calls), error(nil)
	for i := 0; screen && i < len(calls) && veto == nil; i++ {
		if veto = l.host.Screen(t, calls[i].Args); veto != nil {
			ran = i
		}
	}
	if ran > 0 {
		l.chainFused(st, ring, t, calls[:ran], paths[:ran], results[:ran])
	}
	if veto != nil {
		if ran > 0 && !results[ran-1].Ok() {
			veto = results[ran-1].Err
		}
		failLinks(results[ran:], veto)
	}
	// Per-call dispatch enters the kernel for every link up to and
	// including the first that fails.
	for i := 0; screen && i < len(calls); i++ {
		l.host.CountSyscall(calls[i].Args.Nr)
		if !results[i].Ok() {
			break
		}
	}
	return results, true
}

// fusedLink reports the links the fused plan represents exactly: opens
// and sockets, whose descriptors it adopts, closes, which it retires, and
// plain descriptor calls, whose one translation is the descriptor. Every
// other link — a path call, symlink, rename, sendfile, dup, accept, epoll
// — has a per-call handler that does more, so its chain runs per call.
func fusedLink(nr abi.SyscallNr) bool {
	switch nr {
	case abi.SysDup, abi.SysDup2, abi.SysAccept, abi.SysAccept4,
		abi.SysEpollCtl, abi.SysEpollWait:
		return false
	}
	return isOpenLike(nr) || namesFD(nr)
}

// isOpenLike reports links that mint a descriptor the host must adopt.
func isOpenLike(nr abi.SyscallNr) bool {
	switch nr {
	case abi.SysOpen, abi.SysOpenat, abi.SysCreat, abi.SysSocket:
		return true
	default:
		return false
	}
}

// chainFused is the fused execution plan for a chain whose every link
// admitted to the container; paths holds each link's admitted path, and
// results receives each link's result. The chain is walked in order and
// split into wire segments: cache-servable links are answered host-side
// and skipped from the wire, grant-eligible bulk links peel onto the
// zero-copy path between segments, and everything else ships as one
// linked submission per segment (one doorbell, one completion). Dirty
// cache state on every explicitly-named descriptor is flushed before the
// chain so guest-side links see coherent bytes.
func (l *Layer) chainFused(st *layerState, ring marshal.AsyncTransport, t *kernel.Task, calls []ChainCall, paths []string, results []kernel.Result) {
	f := l.fusion
	n := len(calls)

	// Resolve the explicitly-named descriptors, remote since their links
	// admitted to the container, and mark the links whose descriptor a
	// later link binds (referenced): they must execute on the wire so the
	// guest can resolve the binding. Per-link bookkeeping lives in arrays
	// sized for the longest chain the codec allows, so it stays on the
	// stack.
	var entriesArr [marshal.MaxChainLinks]*kernel.FDEntry
	var referencedArr [marshal.MaxChainLinks]bool
	entries, referenced := entriesArr[:n], referencedArr[:n]
	for i := range calls {
		if from := calls[i].FDFrom; from >= 0 {
			referenced[from] = true
		} else if namesFD(calls[i].Args.Nr) {
			entries[i] = t.FD(calls[i].Args.FD)
		}
	}

	// Flush-before-chain: buffered writes to any file the chain names —
	// by descriptor or by an open link's path — must reach the guest
	// before the chain executes there. A failed write-back stays with
	// its descriptor, whose next fsync or close reports it.
	if !l.cacheBypassed(st) {
		for i, e := range entries {
			l.flushFile(st, e, paths[i])
		}
	}

	// The host pays one submit trap for the whole chain.
	l.clock.Charge(t.Lane, l.model.SyscallEntry)

	var rawArr [marshal.MaxChainLinks]kernel.Result // wire results before host-fd rewriting
	var onWireArr [marshal.MaxChainLinks]bool
	raw, onWire := rawArr[:n], onWireArr[:n]
	var chainErr error

	// Every wire segment is built in, and rides, this one frame.
	fr := l.getFrame()
	defer l.putFrame(fr)

	// seg accumulates original link indices for the pending wire segment.
	var segArr [marshal.MaxChainLinks]int
	seg := segArr[:0]
	// segTouches reports whether a pending wire link names host fd fd.
	segTouches := func(fd int) bool {
		for _, oi := range seg {
			if calls[oi].FDFrom < 0 && calls[oi].Args.FD == fd {
				return true
			}
		}
		return false
	}
	flushSeg := func() bool {
		if len(seg) == 0 || chainErr != nil {
			seg = seg[:0]
			return chainErr == nil
		}
		cf := fr.chainFor(len(seg))
		pos := make(map[int]int, len(seg)) // original index -> segment index
		for si, oi := range seg {
			pos[oi] = si
		}
		for si, oi := range seg {
			a := calls[oi].Args
			fdFrom := -1
			switch {
			case calls[oi].FDFrom >= 0:
				if si2, same := pos[calls[oi].FDFrom]; same {
					fdFrom = si2
				} else {
					// The producing link ran in an earlier segment: its raw
					// wire result already names the guest descriptor.
					prev := raw[calls[oi].FDFrom]
					if prev.FD > 0 {
						a.FD = prev.FD
					} else {
						a.FD = int(prev.Ret)
					}
				}
			case entries[oi] != nil:
				a.FD = entries[oi].GuestFD
			}
			if paths[oi] != "" {
				a.Path = paths[oi]
			}
			cf.args[si] = a
			cf.wire[si] = marshal.ChainLink{Args: &cf.wireArgs[si], FDFrom: fdFrom, UseCursor: calls[oi].UseCursor}
		}
		cr, ok := l.forwardChainRing(st, ring, t, fr, len(seg))
		f.chains.Add(1)
		f.submitted.Add(int64(len(seg)))
		f.completed.Add(int64(cr.Executed))
		f.failed.Add(int64(len(seg) - cr.Executed))
		for si, oi := range seg {
			raw[oi] = cr.Results[si]
			results[oi] = cr.Results[si]
			onWire[oi] = true
		}
		if !ok || cr.Executed < len(seg) {
			for si := range seg {
				if !cr.Results[si].Ok() {
					chainErr = cr.Results[si].Err
					break
				}
			}
			if chainErr == nil {
				chainErr = abi.EIO
			}
		}
		seg = seg[:0]
		return chainErr == nil
	}

	for i := range calls {
		if chainErr != nil {
			results[i] = kernel.Result{Ret: -1, Err: chainErr}
			continue
		}
		c := &calls[i]
		a := c.Args // host-fd view for the cache and grant helpers

		// Cache-served links skip the wire entirely. Only side-effect-free
		// attribute/read links with an explicit descriptor qualify, and
		// only while no earlier pending wire link touches the same
		// descriptor (its effect has not executed yet).
		if entries[i] != nil && !referenced[i] && !c.UseCursor && !segTouches(a.FD) &&
			(a.Nr == abi.SysFstat || a.Nr == abi.SysPread64) && !l.cacheBypassed(st) {
			if res, handled := l.cachedFDCall(st, t, entries[i], &a); handled {
				results[i] = res
				f.cacheServed.Add(1)
				if !res.Ok() {
					chainErr = res.Err
				}
				continue
			}
		}

		// Grant-eligible bulk links peel onto the zero-copy path between
		// wire segments: at GrantThreshold and above, page flipping beats
		// copying the payload through the ring.
		if entries[i] != nil && !referenced[i] && !c.UseCursor && l.grantEligible(&a) {
			if !flushSeg() {
				results[i] = kernel.Result{Ret: -1, Err: chainErr}
				continue
			}
			res := l.forwardGrantFD(st, t, entries[i], &a)
			results[i] = res
			f.grantLinks.Add(1)
			if !res.Ok() {
				chainErr = res.Err
			}
			continue
		}

		seg = append(seg, i)
	}
	flushSeg()

	// Post-processing, in chain order: adopt descriptors minted on the
	// wire, retire host bookkeeping for chained closes, write read data
	// back into caller buffers, and keep the cache's invalidation
	// bookkeeping coherent for explicit-descriptor links.
	hostFDFor := make(map[int]int)
	for i := range calls {
		c := &calls[i]
		res := results[i]
		if onWire[i] && res.Ok() {
			if isOpenLike(c.Args.Nr) && raw[i].FD > 0 {
				p := paths[i]
				if c.Args.Nr == abi.SysSocket {
					p = "sock:"
				}
				e := &kernel.FDEntry{Kind: kernel.FDRemote, GuestFD: raw[i].FD, Path: p}
				if c.Args.Nr != abi.SysSocket {
					e.Flags = c.Args.OpenFlags()
					l.noteRemoteOpen(p, e.Flags)
				}
				hostFD := t.InstallFD(e)
				results[i] = kernel.Result{Ret: int64(hostFD), FD: hostFD, Data: raw[i].Data}
				hostFDFor[i] = hostFD
			}
			if c.Args.Nr == abi.SysClose {
				switch {
				case c.FDFrom >= 0:
					if hfd, ok := hostFDFor[c.FDFrom]; ok {
						if e := t.FD(hfd); e != nil {
							t.CloseFD(hfd)
							l.forgetFD(e)
						}
						delete(hostFDFor, c.FDFrom)
					}
				case entries[i] != nil:
					t.CloseFD(c.Args.FD)
					l.forgetFD(entries[i])
				}
			}
		}
		if onWire[i] {
			e := entries[i]
			if hfd, ok := hostFDFor[c.FDFrom]; ok && e == nil {
				e = t.FD(hfd) // a descriptor an earlier link opened
			}
			if e != nil {
				l.noteForwardedFDOp(e, c.Args.Nr)
			}
		}
		// Read data already landed in the caller's buffers (landReply,
		// composeLocked); other reply bytes are copied out here.
		writeBackOther(&c.Args, res)
	}
	// Descriptors the chain opened and left open bind to their files now,
	// as a plain open's do.
	for _, hfd := range hostFDFor {
		l.bindFD(t, t.FD(hfd), nil)
	}
}

// forwardChainRing moves one wire segment through a single ring slot:
// the n links built in the frame's chain scratch are encoded as a chain
// frame, the guest executes every link in one trap context
// (proxy.ExecuteChainDrained), and the completion carries the positional
// result vector home. The results are views into the frame's scratch,
// valid until its next chain. Deadline, degraded and host-down semantics
// match forwardRing slot-for-slot. On a transport failure every link
// reports the failure. ok mirrors whether the segment's results are
// genuine guest results.
func (l *Layer) forwardChainRing(st *layerState, ring marshal.AsyncTransport, t *kernel.Task, f *callFrame, n int) (marshal.ChainResult, bool) {
	cf := f.chain
	failAll := func(err error) (marshal.ChainResult, bool) {
		return marshal.ChainResult{Results: failLinks(make([]kernel.Result, n), err)}, false
	}
	if !l.enterGuestCall(st) {
		l.counters.failedFast.Add(1)
		return failAll(fmt.Errorf("container circuit breaker open: %w", abi.EAGAIN))
	}
	defer l.exitGuestCall()
	p, err := st.proxies.Ensure(t)
	if err != nil {
		if errors.Is(err, abi.EHOSTDOWN) {
			l.counters.hostDown.Add(1)
		}
		return failAll(fmt.Errorf("enroll proxy: %w", err))
	}
	l.counters.redirected.Add(int64(n))
	if l.trace != nil {
		l.trace.Record(sim.EvRedirect, "redirect fused chain of %d links pid=%d -> proxy %d (ring)", n, t.PID, p.PID)
	}

	// Read-like links ship only their size; the data rides home in the
	// completion (same output-pointer rule as single-call frames).
	for i := 0; i < n; i++ {
		w := cf.args[i]
		if isReadLike(w.Nr) && w.Buf != nil {
			w.Size = len(w.Buf)
			w.Buf = nil
		}
		cf.wireArgs[i] = w
	}
	f.req = marshal.AppendChain(f.req[:0], cf.wire[:n])
	l.clock.Charge(t.Lane, time.Duration(len(f.req))*l.model.MarshalPerByte)

	f.st, f.proxy = st, p
	span := l.clock.StartSpan(t.Lane)
	pending, serr := ring.Submit(t.Lane, f.req, ringKey(t, &cf.wireArgs[0]), f.execChainFn)
	if serr != nil {
		res := l.transportFailure(t, &cf.args[0], span, serr)
		return failAll(res.Err)
	}
	respBytes, werr := pending.Wait()
	if werr != nil {
		res := l.transportFailure(t, &cf.args[0], span, werr)
		return failAll(res.Err)
	}
	if span.Elapsed() > l.deadline {
		l.counters.timedOut.Add(1)
		if l.trace != nil {
			l.trace.Record(sim.EvTimeout, "fused chain pid=%d completed past %v deadline", t.PID, l.deadline)
		}
		return failAll(fmt.Errorf("chain exceeded %v deadline: %w", l.deadline, abi.ETIMEDOUT))
	}
	cr, derr := cf.dec.Result(respBytes)
	if derr != nil {
		return failAll(derr)
	}
	if len(cr.Results) != n {
		return failAll(fmt.Errorf("chain reply has %d results for %d links: %w", len(cr.Results), n, abi.EIO))
	}
	for i := range cr.Results {
		landReply(&cf.args[i], &cr.Results[i])
	}
	return cr, true
}

// --- transparent pattern detector ---

// fusionIntercept runs at the top of the container-bound dispatch. It
// serves a recv answered by an earlier speculative send→recv pair,
// observes the per-task call sequence, and — once send→recv is confident
// — speculatively fuses the pair on a send. Returning ok=false hands the
// call to normal dispatch.
func (l *Layer) fusionIntercept(t *kernel.Task, args *kernel.Args) (kernel.Result, bool) {
	f := l.fusion
	key := specKey{pid: t.PID, fd: args.FD}

	// 1. Sticky recv bytes from a fused send→recv pair.
	f.mu.Lock()
	if args.Nr == abi.SysClose {
		if b := f.sticky[key]; len(b) > 0 {
			f.specDropped.Add(1)
		}
		delete(f.sticky, key)
	}
	if args.Nr == abi.SysRecv && len(f.sticky[key]) > 0 && len(args.Buf) > 0 {
		b := f.sticky[key]
		n := copy(args.Buf, b)
		if n == len(b) {
			delete(f.sticky, key)
		} else {
			f.sticky[key] = b[n:]
		}
		f.specServed.Add(1)
		f.mu.Unlock()
		return kernel.Result{Ret: int64(n), Data: args.Buf[:n]}, true
	}

	// 2. Observe the call sequence and update pattern confidence.
	tf := f.tasks[t.PID]
	if tf == nil {
		tf = &taskFusion{}
		f.tasks[t.PID] = tf
	}
	if tf.lastNr == abi.SysSend && args.Nr == abi.SysRecv {
		tf.sendRecv++
		tf.recvSize = args.Size
		if len(args.Buf) > 0 {
			tf.recvSize = len(args.Buf)
		}
		f.patternHits.Add(1)
	}
	tf.lastNr = args.Nr

	// 3. Speculative fusion on a confident send.
	if args.Nr == abi.SysSend && !tf.noSendRecv && tf.sendRecv >= fuseConfidence && tf.recvSize > 0 {
		f.mu.Unlock()
		return l.speculateSendRecv(t, args, tf.recvSize)
	}
	f.mu.Unlock()
	return kernel.Result{}, false
}

// speculateSendRecv fuses a confident send→recv pair: the send is
// served now and the reply bytes stick to the descriptor for the app's
// next recv. A dry recv (no data yet) drops the speculation and turns
// send→recv speculation off for the task instead of buffering an
// EAGAIN the real call might not see.
func (l *Layer) speculateSendRecv(t *kernel.Task, args *kernel.Args, recvSize int) (kernel.Result, bool) {
	f := l.fusion
	chain := []ChainCall{
		{Args: *args, FDFrom: -1},
		{Args: kernel.Args{Nr: abi.SysRecv, FD: args.FD, Size: recvSize}, FDFrom: -1},
	}
	results, ok := l.tryFusedChain(t, chain, false)
	if !ok {
		return kernel.Result{}, false
	}
	send, recv := results[0], results[1]
	if !send.Ok() {
		return send, true
	}
	f.mu.Lock()
	if recv.Ok() && recv.Ret > 0 && len(recv.Data) > 0 {
		// The reply data is already a private copy (landReply): adopt it
		// unless earlier bytes are still waiting.
		key := specKey{pid: t.PID, fd: args.FD}
		if b := f.sticky[key]; len(b) > 0 {
			f.sticky[key] = append(b, recv.Data[:recv.Ret]...)
		} else {
			f.sticky[key] = recv.Data[:recv.Ret]
		}
	} else {
		// Nothing to read yet: the peer answers asynchronously, so stop
		// paying for speculative recv links that come back dry.
		f.specDropped.Add(1)
		if tf := f.tasks[t.PID]; tf != nil {
			tf.sendRecv = 0
			tf.noSendRecv = true
		}
	}
	f.mu.Unlock()
	return send, true
}
