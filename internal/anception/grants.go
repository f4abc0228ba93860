package anception

import (
	"sync"

	"anception/internal/abi"
	"anception/internal/hypervisor"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/sim"
)

// This file implements the layer side of the zero-copy grant path
// (DESIGN.md §11): bulk redirected I/O ships a scatter-gather descriptor
// naming pinned host pages (hypervisor.GrantTable extents mapped into
// guest space) instead of chunk-copying the payload through the data
// channel. The cutover is by size — calls moving at least
// Options.GrantThreshold bytes take the grant path; smaller calls keep
// the copy path, whose fixed costs are cheaper than a map+shootdown pair.

// GrantPathStats counts zero-copy activity, surfaced via
// LayerStats.Grants.
type GrantPathStats struct {
	// Calls counts redirected calls that took the grant path.
	Calls int
	// Bytes is the payload moved by reference instead of through
	// chunked channel copies.
	Bytes int64
	// CacheBypasses counts cached reads routed around a live write
	// grant (coherence rule: the cache never serves a page overlapping
	// an in-flight granted write).
	CacheBypasses int
	// Table holds the hypervisor grant-table counters (maps, revokes,
	// restart sweeps, stale rejections).
	Table hypervisor.GrantStats
}

// layerGrants is the layer's grant-path state: the table handle, the
// size cutover, and the registry of in-flight write-grant extents the
// redirection cache must route around.
type layerGrants struct {
	table     *hypervisor.GrantTable
	threshold int

	mu   sync.Mutex
	seq  int64
	live map[int64]grantExtent
}

// grantExtent is one in-flight granted write: the cached file the
// descriptor is bound to (whatever name it was opened under) and the
// byte range it targets. off < 0 means the offset is unknown (a plain
// write at the file cursor) and the extent overlaps everything in the
// file.
type grantExtent struct {
	file *fileCache
	off  int64
	end  int64
}

func newLayerGrants(table *hypervisor.GrantTable, threshold int) *layerGrants {
	return &layerGrants{
		table:     table,
		threshold: threshold,
		live:      make(map[int64]grantExtent),
	}
}

// registerWrite records an in-flight granted write so concurrent cached
// reads bypass any overlapping pages until it completes.
func (g *layerGrants) registerWrite(file *fileCache, off, n int64) int64 {
	ext := grantExtent{file: file, off: off, end: off + n}
	g.mu.Lock()
	g.seq++
	id := g.seq
	g.live[id] = ext
	g.mu.Unlock()
	return id
}

// unregister drops a completed write grant from the live registry.
func (g *layerGrants) unregister(id int64) {
	g.mu.Lock()
	delete(g.live, id)
	g.mu.Unlock()
}

// overlapsLiveWrite reports whether [off, off+n) of a guest file overlaps
// any in-flight granted write.
func (g *layerGrants) overlapsLiveWrite(file *fileCache, off, n int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, ext := range g.live {
		if ext.file != file {
			continue
		}
		if ext.off < 0 || (off < ext.end && off+n > ext.off) {
			return true
		}
	}
	return false
}

// clearLive empties the registry (CVM restart: the grants backing these
// extents were revoked wholesale).
func (g *layerGrants) clearLive() {
	g.mu.Lock()
	g.live = make(map[int64]grantExtent)
	g.mu.Unlock()
}

// grantEligible reports whether a call should take the zero-copy path:
// grants enabled and a bulk I/O call moving at least GrantThreshold
// bytes.
func (l *Layer) grantEligible(args *kernel.Args) bool {
	if l.grants == nil {
		return false
	}
	var n int
	switch args.Nr {
	case abi.SysRead, abi.SysWrite, abi.SysPread64, abi.SysPwrite64,
		abi.SysSend, abi.SysSendto, abi.SysRecv, abi.SysRecvfrom:
		n = len(args.Buf)
	case abi.SysReadv, abi.SysWritev, abi.SysPreadv, abi.SysPwritev:
		n = grantIovTotal(args.Iov)
	default:
		return false
	}
	return l.policy.useGrant(n, l.grants.threshold)
}

func grantIovTotal(iov [][]byte) int {
	n := 0
	for _, seg := range iov {
		n += len(seg)
	}
	return n
}

// bufLen returns the bytes a call's buffer or vector holds.
func bufLen(args *kernel.Args) int64 {
	if len(args.Iov) > 0 {
		return int64(grantIovTotal(args.Iov))
	}
	return int64(len(args.Buf))
}

// RevokeGrants drops every outstanding grant and clears the live-extent
// registry. Called on CVM restart (ReplaceGuest and the supervisor's
// GrantRevoker hook): the guest mappings died with the old container and
// stale refs must fail EHOSTDOWN, never touch reused host pages.
func (l *Layer) RevokeGrants() {
	if l.grants == nil {
		return
	}
	l.grants.table.RevokeAll()
	l.grants.clearLive()
}

// GrantStats snapshots the grant-path counters (zero value when the
// grant path is disabled).
func (l *Layer) GrantStats() GrantPathStats {
	if l.grants == nil {
		return GrantPathStats{}
	}
	return GrantPathStats{
		Calls:         int(l.counters.grantCalls.Load()),
		Bytes:         l.counters.grantBytes.Load(),
		CacheBypasses: int(l.counters.grantCacheBypass.Load()),
		Table:         l.grants.table.Stats(),
	}
}

// forwardGrantFD is the grant path's descriptor-call entry: it keeps the
// redirection cache coherent around the granted extents, then forwards.
// Coherence rules:
//   - buffered (dirty) data for the file is flushed first, so the guest
//     is authoritative before the granted call reads or writes;
//   - a granted write registers its extent while in flight, so a
//     concurrent cached read overlapping it bypasses the cache;
//   - after a granted write lands, the file's clean pages are dropped —
//     the file changed beneath them.
func (l *Layer) forwardGrantFD(st *layerState, t *kernel.Task, d hostFD, args *kernel.Args) kernel.Result {
	if !l.cacheBypassed(st) {
		if res, failed := l.flushFDFor(st, t, d.key); failed {
			return res
		}
	}
	writeStyle := !isReadLike(args.Nr)
	var file *fileCache
	var liveID int64
	if writeStyle {
		file = l.fileOf(d.key)
		off := args.Off
		if args.Nr == abi.SysWrite || args.Nr == abi.SysWritev ||
			args.Nr == abi.SysSend || args.Nr == abi.SysSendto {
			off = -1 // cursor write: offset unknown, overlap everything
		}
		liveID = l.grants.registerWrite(file, off, bufLen(args))
	}
	fwd := *args
	fwd.FD = d.GuestFD
	res := l.forward(st, t, armGrant, &fwd)
	if writeStyle {
		l.grants.unregister(liveID)
		if res.Ok() {
			l.noteFileWrite(file)
		}
	}
	return res
}

// encodeGrant is the forward core's grant arm: it moves one bulk call by
// reference. The call's buffers are pinned and mapped into the guest as
// one batched grant, a fixed-size scatter-gather descriptor travels the
// channel in place of the payload, the guest resolves the extents back
// to the pinned host pages and executes against them directly
// (execGrant), and the reply carries only the return count. The core
// revokes the grant when the call completes, success or not. The refs,
// the descriptor's entries and the guest's resolved views all live in
// the call frame.
func (l *Layer) encodeGrant(t *kernel.Task, f *callFrame, args *kernel.Args) {
	bufs := args.Iov
	if len(bufs) == 0 {
		bufs = [][]byte{args.Buf}
	}
	// Read-style calls grant writable extents: the guest fills the pinned
	// app pages in place, which is the whole point — the data never
	// traverses the copy channel in either direction.
	writable := isReadLike(args.Nr)
	f.refs = l.grants.table.GrantBatch(t.Lane, bufs, writable, f.refs[:0])

	total := 0
	f.sg.Writable = writable
	f.sg.Entries = f.sg.Entries[:0]
	for _, ref := range f.refs {
		f.sg.Entries = append(f.sg.Entries, marshal.SGEntry{ID: ref.ID, Gen: ref.Gen, Len: ref.Len})
		total += int(ref.Len)
	}

	l.counters.redirected.Add(1)
	l.counters.grantCalls.Add(1)
	l.counters.grantBytes.Add(int64(total))
	if l.trace != nil {
		l.trace.Record(sim.EvGrant, "grant-call %s pid=%d: %d extent(s), %d bytes by reference", args.Nr, t.PID, len(f.refs), total)
	}

	// The args travel with the bulk payload stripped; the extents move by
	// reference in the descriptor, so the frame stays size-independent.
	enc := *args
	enc.Buf = nil
	enc.Iov = nil
	enc.Size = total
	f.req = marshal.AppendGrantCall(f.req[:0], &f.sg, &enc)
}

// execGrant is the guest handler of a grant-call frame: decode it into
// the frame's decoder, resolve every extent to the pinned host pages,
// run the call against them in the proxy's context, and append the
// result to the reply frame.
func (f *callFrame) execGrant(req []byte) []byte {
	a := &f.args
	d, err := f.dec.GrantCall(req, a)
	if err != nil {
		return f.setReply(kernel.Result{Ret: -1, Err: abi.EINVAL})
	}
	table := f.layer.grants.table
	f.resolved = f.resolved[:0]
	for _, ent := range d.Entries {
		b, rerr := table.Resolve(hypervisor.GrantRef{ID: ent.ID, Gen: ent.Gen, Len: ent.Len})
		if rerr != nil {
			// Stale generation surfaces as EHOSTDOWN, revoked-in-flight
			// as ENXIO; both travel home as matchable errnos.
			return f.setReply(kernel.Result{Ret: -1, Err: rerr})
		}
		if int(ent.Off)+int(ent.Len) > len(b) {
			return f.setReply(kernel.Result{Ret: -1, Err: abi.EINVAL})
		}
		f.resolved = append(f.resolved, b[ent.Off:ent.Off+ent.Len])
	}
	switch {
	case len(a.Iov) > 0 || a.Nr == abi.SysReadv || a.Nr == abi.SysWritev ||
		a.Nr == abi.SysPreadv || a.Nr == abi.SysPwritev:
		a.Iov = f.resolved
	case len(f.resolved) == 1:
		a.Buf = f.resolved[0]
		a.Size = len(a.Buf)
	default:
		return f.setReply(kernel.Result{Ret: -1, Err: abi.EINVAL})
	}
	var res kernel.Result
	if f.drained {
		res = f.st.proxies.ExecuteDrained(f.proxy, *a)
	} else {
		res = f.st.proxies.Execute(f.proxy, *a)
	}
	// Zero-copy: a read-style call's bytes already landed in the granted
	// (pinned app) pages; the reply carries only the count.
	res.Data = nil
	return tampered(f.st, f.setReply(res))
}
