package anception

import (
	"bytes"
	"fmt"
	"time"

	"anception/internal/abi"
	"anception/internal/hypervisor"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/vfs"
)

// Frame ownership (DESIGN.md §10): every redirected call borrows one
// callFrame from its layer's small free list and returns it when the call
// is done. The frame owns the request the forward core encodes, the reply
// the guest handler appends, the guest's read scratch, a granted call's
// refs, descriptor entries and resolved views, and the landed result
// vector, so the steady-state data plane encodes, executes, decodes and
// lands without allocating. Decoded requests and replies are views into
// the frame; the core lands every reply (land) before it returns, so the
// results a caller gets point into the caller's buffers or into copies,
// never into the frame.

const (
	// frameListLen bounds how many idle frames a layer keeps: more than
	// the calls a device has in flight at once in practice (the ring's
	// slots in flight plus blocked submitters), so steady state never allocates.
	frameListLen = 32
	// frameKeepBytes is the largest buffer a returned frame keeps; a call
	// that needed more (a huge unbuffered read) gives its buffer to the GC
	// instead of pinning it in the list.
	frameKeepBytes = 128 << 10
)

// callFrame is the reusable buffer set of one redirected call.
type callFrame struct {
	req     []byte      // encoded request
	reply   []byte      // the guest's encoded reply
	scratch []byte      // guest-side output buffer of a read-like call
	args    kernel.Args // guest-side decode of req (views into req)
	// txn is the host's one copy of an app's binder transaction: routing,
	// the reply-cache key and dispatch all read it (DESIGN.md §12).
	txn []byte
	// results is the result vector of the call in flight, grown to the
	// longest the frame has carried: the guest's of a batch or chain, then
	// the host's landed results of any call.
	results []kernel.Result
	// dec decodes every frame kind: guest side the request (and txn),
	// host side the reply. It keeps the paths, addresses and binder
	// service of the frame's earlier calls, so a repeated one decodes
	// without a copy. It lives outside args, which every decode resets,
	// and putFrame keeps it.
	dec marshal.Decoder

	// Context of the in-flight call, read by the guest handler. Set
	// before the round trip, so the transport's hand-off orders it before
	// the handler runs.
	st      *layerState
	proxy   *kernel.Task
	drained bool
	// oneway drops a binder transaction's reply unread.
	oneway bool
	// A binder call's charges (DESIGN.md §12): hostCost is the host's
	// share, charged once the call is through the gate, and fitted the
	// figure the whole crossing is fitted to, of which the core charges
	// what the round trip left.
	hostCost, fitted time.Duration
	// batch is the in-flight batch's calls, which the core encodes.
	batch []*kernel.Args
	// layer is the frame's owner, set once.
	layer *Layer
	// handlers are the guest handlers of the core's arms (f.execArgs,
	// f.execBatch, ...), each bound once per frame so a round trip
	// allocates no closure.
	handlers [armCount]marshal.GuestHandler
	// A granted call's state (DESIGN.md §11): host side, the refs it
	// mapped and the descriptor naming them; guest side, the views of the
	// pinned app pages the descriptor resolved to.
	refs     []hypervisor.GrantRef
	sg       marshal.SGDescriptor
	resolved [][]byte
	// chain is the per-link scratch of a fused chain, made the first time
	// the frame carries one.
	chain *chainFrame
}

// chainFrame is a frame's per-link scratch for fused chains, grown to the
// longest chain the frame has carried.
type chainFrame struct {
	// Host side: the in-flight segment's n links; each wire link's args
	// with host buffers (the reply lands in them), the same args with read
	// buffers stripped to a size, and the wire links that point at the
	// stripped copies.
	n        int
	args     []kernel.Args
	wireArgs []kernel.Args
	wire     []marshal.ChainLink
	// executed is how many links the guest ran, per the landed reply.
	executed int
}

// chainFor returns the frame's chain scratch for a segment of n links.
func (f *callFrame) chainFor(n int) *chainFrame {
	if f.chain == nil {
		f.chain = &chainFrame{}
	}
	c := f.chain
	if len(c.args) < n {
		c.args = make([]kernel.Args, n)
		c.wireArgs = make([]kernel.Args, n)
		c.wire = make([]marshal.ChainLink, n)
	}
	c.n = n
	return c
}

// getFrame borrows a frame from the free list, or makes a new one.
func (l *Layer) getFrame() *callFrame {
	select {
	case f := <-l.frames:
		return f
	default:
		f := &callFrame{layer: l}
		f.handlers = [armCount]marshal.GuestHandler{
			armArgs: f.execArgs, armBatch: f.execBatch, armSock: f.execSock,
			armGrant: f.execGrant, armChain: f.execChain, armBinder: f.execBinder,
		}
		return f
	}
}

// putFrame returns a frame to the free list. Every view into it is dead
// from here on, and it pins no app buffer while idle.
func (l *Layer) putFrame(f *callFrame) {
	f.args = kernel.Args{}
	f.st, f.proxy, f.batch, f.oneway, f.hostCost, f.fitted = nil, nil, nil, false, 0, 0
	clear(f.resolved)
	f.resolved = f.resolved[:0]
	clear(f.results)
	if c := f.chain; c != nil {
		clear(c.args)
		clear(c.wireArgs)
	}
	if cap(f.req) > frameKeepBytes {
		f.req = nil
	}
	if cap(f.txn) > frameKeepBytes {
		f.txn = nil
	}
	if cap(f.reply) > frameKeepBytes {
		f.reply = nil
	}
	if cap(f.scratch) > frameKeepBytes {
		f.scratch = nil
	}
	select {
	case l.frames <- f:
	default:
	}
}

// wantsScratch reports a decoded read-like call that names only an
// output size: the guest must supply the buffer.
func wantsScratch(a *kernel.Args) bool {
	return isReadLike(a.Nr) && len(a.Buf) == 0 && len(a.Iov) == 0 && a.Size > 0
}

// outputBuf gives a decoded call that travelled without its output
// buffer one carved from the frame's scratch: a read-like call its n
// bytes, an accept4 or epoll_wait room for its batch's descriptor list,
// which the guest kernel appends to Buf[:0].
func (f *callFrame) outputBuf(a *kernel.Args) {
	switch {
	case wantsScratch(a):
		a.Buf = f.scratchFor(a.Size)
	case isFDList(a.Nr):
		a.Buf = f.scratchFor(4 * netBatchLimit(a.Size))[:0]
	}
}

// scratchFor returns the guest's zeroed n-byte read buffer.
func (f *callFrame) scratchFor(n int) []byte {
	if cap(f.scratch) < n {
		f.scratch = make([]byte, n)
		return f.scratch
	}
	s := f.scratch[:n]
	clear(s)
	return s
}

// chainScratch gives every read-like link of a decoded chain its output
// buffer, carved from the frame's scratch.
func (f *callFrame) chainScratch(links []marshal.ChainLink) {
	total := 0
	for _, ln := range links {
		if wantsScratch(ln.Args) {
			total += ln.Args.Size
		}
	}
	if total == 0 {
		return
	}
	scratch := f.scratchFor(total)
	for _, ln := range links {
		if a := ln.Args; wantsScratch(a) {
			a.Buf, scratch = scratch[:a.Size:a.Size], scratch[a.Size:]
		}
	}
}

// setReply encodes res into the reply frame.
func (f *callFrame) setReply(res kernel.Result) []byte {
	f.reply = marshal.AppendResult(f.reply[:0], res)
	return f.reply
}

// tampered passes a reply through the layer's result-tampering hook (the
// Iago attack surface). The hook may rewrite the frame in place or return
// a fresh slice; either way the host decodes what it returns.
func tampered(st *layerState, resp []byte) []byte {
	if st.tamper != nil {
		return st.tamper(resp)
	}
	return resp
}

// execArgs is the guest handler of an args frame: decode it in place, run
// the call in the proxy's context, and append the result to the reply
// frame.
func (f *callFrame) execArgs(req []byte) []byte {
	a := &f.args
	if err := f.dec.Args(req, a); err != nil {
		return f.setReply(kernel.Result{Ret: -1, Err: abi.EINVAL})
	}
	f.outputBuf(a)
	var res kernel.Result
	if f.drained {
		res = f.st.proxies.ExecuteDrained(f.proxy, *a)
	} else {
		res = f.st.proxies.Execute(f.proxy, *a)
	}
	return tampered(f.st, f.setReply(res))
}

// execSock is the guest handler of a sockop frame, which only the ring
// carries: decode it in place, run the op in the proxy's context (the
// ring's SQ poller already paid the dispatch), and append the result to
// the reply frame.
func (f *callFrame) execSock(req []byte) []byte {
	a := &f.args
	if err := f.dec.SockOp(req, a); err != nil {
		return f.setReply(kernel.Result{Ret: -1, Err: abi.EINVAL})
	}
	f.outputBuf(a)
	return tampered(f.st, f.setReply(f.st.proxies.ExecuteDrained(f.proxy, *a)))
}

// execChain is the guest handler of a chain frame: decode it into the
// frame's chain scratch, run every link in the proxy's context in one
// trap, and append the result vector to the reply frame.
func (f *callFrame) execChain(req []byte) []byte {
	decoded, err := f.dec.Chain(req)
	if err != nil {
		f.reply = marshal.AppendChainResult(f.reply[:0], marshal.ChainResult{Results: []kernel.Result{{Ret: -1, Err: abi.EINVAL}}})
		return f.reply
	}
	f.chainScratch(decoded)
	cr := f.st.proxies.ExecuteChainDrained(f.proxy, decoded, f.results)
	f.results = cr.Results
	f.reply = marshal.AppendChainResult(f.reply[:0], cr)
	return tampered(f.st, f.reply)
}

// land is the forward core's one landing: it decodes the reply to f's
// call on arm with the frame's decoder, holds the result count to the
// calls the frame carried (1, a batch's or a chain's), and lands each
// result into f.results. A result must first pass checkReply; one that
// does not lands as EIO, and fails the call unless it is one of a batch
// or chain, whose other results still land. A granted call's bytes moved
// through the pinned pages: its reply bytes (only a tampering guest sends
// any) are dropped and its count is checked by reference. A oneway binder
// transaction's reply is dropped unread. Other results are copied out of
// the frame (copyOut), so what land returns outlives it; the vector
// itself is the frame's.
func (f *callFrame) land(arm fwdArm, args *kernel.Args, resp []byte) ([]kernel.Result, error) {
	var err error
	calls := 1
	switch {
	case arm == armBinder && f.oneway:
		f.results = append(f.results[:0], kernel.Result{})
		return f.results, nil
	case arm == armBatch:
		calls = len(f.batch)
		var results []kernel.Result
		if results, err = f.dec.ResultBatch(resp); err == nil {
			f.results = append(f.results[:0], results...)
		}
	case arm == armChain:
		calls = f.chain.n
		var cr marshal.ChainResult
		if cr, err = f.dec.ChainResult(resp); err == nil {
			f.results, f.chain.executed = append(f.results[:0], cr.Results...), cr.Executed
		}
	default:
		var res kernel.Result
		if res, err = f.dec.Result(resp); err == nil {
			f.results = append(f.results[:0], res)
		}
	}
	if err != nil {
		return nil, err
	}
	if len(f.results) != calls {
		return nil, fmt.Errorf("%s reply: %d results for %d calls: %w", args.Nr, len(f.results), calls, abi.EIO)
	}
	byRef := arm == armGrant
	for i := range f.results {
		call, res := args, &f.results[i]
		switch arm {
		case armBatch:
			call = f.batch[i]
		case armChain:
			call = &f.chain.args[i]
		}
		if byRef {
			res.Data = nil
		}
		if err := checkReply(call, res, byRef); err != nil {
			*res = kernel.Result{Ret: -1, Err: err}
			if arm == armBatch || arm == armChain {
				continue
			}
			return nil, err
		}
		copyOut(call, res)
	}
	return f.results, nil
}

// copyOut is the pointer-translation writeback of a checked result, whose
// Data is a view into the frame. A successful read-like call's bytes land
// in the caller's buffer — the one host-side copy — and Data becomes that
// buffer. A successful stat's kind tag (checkReply held it to vfs's
// letters) lands the same way when the caller passed a buffer, and
// otherwise becomes the host's own read-only view of vfs's letter table:
// a stat reply's Data is never written to or kept by its receiver. An
// accept4 or epoll_wait descriptor list lands in the caller's buffer when
// its capacity holds the list. Any other reply bytes are copied out (and
// a vectored read is scattered from the copy).
func copyOut(args *kernel.Args, res *kernel.Result) {
	if len(res.Data) == 0 {
		return
	}
	if res.Ok() && (isReadLike(args.Nr) || isStat(args.Nr)) && len(args.Iov) == 0 && len(args.Buf) > 0 {
		res.Data = args.Buf[:copy(args.Buf, res.Data)]
		return
	}
	if res.Ok() && isFDList(args.Nr) && cap(args.Buf) >= len(res.Data) {
		res.Data = args.Buf[:copy(args.Buf[:cap(args.Buf)], res.Data)]
		return
	}
	if res.Ok() && isStat(args.Nr) {
		res.Data = vfs.LetterView(res.Data[0])
		return
	}
	res.Data = bytes.Clone(res.Data)
	if res.Ok() && isReadLike(args.Nr) && len(args.Iov) > 0 {
		scatterIntoIov(args.Iov, res.Data)
	}
}

// checkReply holds a decoded reply to what a kernel's copy-out could
// return for args; the container is untrusted (paper §VII), so a reply
// that breaks a rule is rejected with EIO before any byte of it lands:
//   - an error carries an errno of abi's set (not 0, not a forged value);
//   - a negative Ret carries an errno;
//   - a read-like call's Ret is at most the bytes it asked for and, on
//     the copy path, equals len(Data); on the grant path (byRef) the
//     bytes moved through the pinned pages instead;
//   - a write's Ret is at most its length;
//   - a stat's or fstat's reply bytes are one of vfs's kind letters;
//   - an accept4's or epoll_wait's reply bytes are a whole descriptor
//     list whose length Ret is, and at most the batch it asked for.
//
// The check is host work only: it charges no sim time.
func checkReply(args *kernel.Args, res *kernel.Result, byRef bool) error {
	if !res.Ok() {
		if errno, ok := res.Err.(abi.Errno); ok && !errno.Valid() {
			return fmt.Errorf("%s reply: errno %d: %w", args.Nr, int(errno), abi.EIO)
		}
		return nil
	}
	if res.Ret < 0 {
		return fmt.Errorf("%s reply: return %d without an errno: %w", args.Nr, res.Ret, abi.EIO)
	}
	n := bufLen(args)
	switch {
	case isReadLike(args.Nr):
		if args.Buf == nil && args.Iov == nil {
			n = int64(args.Size) // a read that ships only its size
		}
		if res.Ret > n {
			return fmt.Errorf("%s reply: %d bytes for a %d-byte buffer: %w", args.Nr, res.Ret, n, abi.EIO)
		}
		if !byRef && res.Ret != int64(len(res.Data)) {
			return fmt.Errorf("%s reply: return %d with %d data bytes: %w", args.Nr, res.Ret, len(res.Data), abi.EIO)
		}
	case isWriteLike(args.Nr):
		if res.Ret > n {
			return fmt.Errorf("%s reply: %d bytes written of %d: %w", args.Nr, res.Ret, n, abi.EIO)
		}
	case isStat(args.Nr):
		if len(res.Data) != 1 || vfs.LetterView(res.Data[0]) == nil {
			return fmt.Errorf("%s reply: kind tag %q: %w", args.Nr, res.Data, abi.EIO)
		}
	case isFDList(args.Nr):
		if len(res.Data)%4 != 0 || res.Ret != int64(len(res.Data)/4) || res.Ret > int64(args.Size) {
			return fmt.Errorf("%s reply: return %d with a %d-byte list for a batch of %d: %w", args.Nr, res.Ret, len(res.Data), args.Size, abi.EIO)
		}
	}
	return nil
}

// isStat reports calls whose reply bytes are a file's one-letter kind tag.
func isStat(nr abi.SyscallNr) bool {
	return nr == abi.SysStat || nr == abi.SysFstat
}

// isWriteLike reports calls whose buffer argument is input-only payload.
func isWriteLike(nr abi.SyscallNr) bool {
	switch nr {
	case abi.SysWrite, abi.SysPwrite64, abi.SysWritev, abi.SysPwritev,
		abi.SysSend, abi.SysSendto:
		return true
	default:
		return false
	}
}

// execBatch is the guest handler of a batch frame: decode it into the
// frame's decoder, run the calls in the proxy's context, and append the
// result vector to the reply frame.
func (f *callFrame) execBatch(req []byte) []byte {
	decoded, err := f.dec.ArgsBatch(req)
	if err != nil {
		f.reply = marshal.AppendResultBatch(f.reply[:0], []kernel.Result{{Ret: -1, Err: abi.EINVAL}})
		return f.reply
	}
	for _, d := range decoded {
		if wantsScratch(d) {
			d.Buf = make([]byte, d.Size)
		}
	}
	// Per-call errors ride home positionally inside the encoded result
	// vector; the aggregate error serves direct Manager users.
	if f.drained {
		f.results, _ = f.st.proxies.ExecuteBatchDrained(f.proxy, decoded, f.results)
	} else {
		f.results, _ = f.st.proxies.ExecuteBatch(f.proxy, decoded, f.results)
	}
	f.reply = marshal.AppendResultBatch(f.reply[:0], f.results)
	// The decoded calls are views into req and scratch reads; drop them
	// so the decoder's storage pins neither once the frame is returned.
	for _, d := range decoded {
		*d = kernel.Args{}
	}
	return tampered(f.st, f.reply)
}
