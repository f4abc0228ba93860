package anception

import (
	"bytes"
	"container/list"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/sim"
	"anception/internal/vfs"
)

// This file implements the host-side redirection cache (DESIGN.md §9).
// Clean pages and the size of a guest file are shared by every descriptor
// and app bound to it, keyed by the absolute guest path the open
// forwarded (rename and link move or alias the key; unlink and O_TRUNC
// drop it; the last close forgets the file). The read cursor, guest fd,
// owner task and write-coalescing buffer stay per descriptor. A miss
// fetches the pages it spans, or the read-ahead window when the read
// starts where the descriptor's previous read ended (or at offset 0).
// Idempotent path calls hit a per-UID attribute cache.
//
// Coherence rules:
//   - only regular files bind: procfs entries, device nodes, pipes and
//     sockets act on every call, so every call on them reaches the guest;
//   - only a descriptor open for reading reads the shared pages, and only
//     one open for writing buffers; the guest answers the others;
//   - a descriptor's reads see its own buffered writes over clean pages;
//   - every cached call on a file, and a stat of its path, first flushes
//     what OTHER descriptors of the file buffered; a failed write-back is
//     reported by its own descriptor's next fsync or close;
//   - any other call flushes the file first (the guest stays authoritative
//     for offsets and metadata);
//   - a write around the cache (cursor, vectored, granted, sendfile,
//     msync) drops that file's pages, and only that file's;
//   - a container restart wipes the cache under its lock; degraded
//     (circuit-breaker) mode bypasses it;
//   - clean pages live under an LRU byte budget, with dropped buffers kept
//     as spares (up to an eighth of it); dirty data is bounded by the
//     flush threshold (read-ahead window) and the flush deadline.

// Cache tuning.
const (
	// DefaultReadAheadPages is the number of pages a sequential read miss
	// fetches in one chunked round-trip, and the dirty-buffer flush
	// threshold.
	DefaultReadAheadPages = 8
	// DefaultCacheBudgetBytes bounds clean cached page data (LRU).
	DefaultCacheBudgetBytes = 4 << 20
	// DefaultCacheFlushDelay is the sim-time deadline after which buffered
	// writes are flushed to the container even without fsync/close.
	DefaultCacheFlushDelay = 5 * time.Millisecond

	// maxAttrEntries bounds the path-attribute cache; the whole attribute
	// map is dropped when it fills (crude, but bounded and rare).
	maxAttrEntries = 1024

	cachePageSize = int64(abi.PageSize)

	// spareBudgetShare: spare page buffers may hold up to 1/8 of the
	// clean-page budget.
	spareBudgetShare = 8
)

// CacheStats counts redirection-cache activity. Plain value-copy-safe
// integers, surfaced through LayerStats.Cache.
type CacheStats struct {
	Hits            int // calls served from host memory: no container round-trip
	Misses          int // consultations that needed the container
	ReadAheadPages  int // pages fetched beyond a sequential miss's own span
	CoalescedWrites int // buffered writes merged into an existing dirty range
	Flushes         int // write-back round-trips (each may carry many ranges)
	Invalidations   int // whole-cache wipes (CVM restart) and per-file/path purges
}

// redirCacheConfig is the cache tuning. Boot always sets the defaults
// above; tests shrink it to reach the eviction and write-back edges.
type redirCacheConfig struct {
	readAhead  int
	budget     int64
	flushDelay time.Duration
}

// redirCache is the cache state. One mutex guards everything including the
// fetch and flush forwards: they only touch the proxy/transport stack,
// which never re-enters the cache, so holding the lock across them is
// deadlock-free and keeps read-after-write coherence windows closed.
type redirCache struct {
	cfg redirCacheConfig

	mu sync.Mutex
	// bytes counts resident clean pages; spare holds the buffers of
	// dropped pages for reuse. Together they stay within the budget.
	bytes int64
	spare [][]byte
	// lru orders clean cached pages, most recently used at the front.
	lru *list.List
	fds map[*kernel.FDEntry]*fdCache
	// files maps an absolute guest path to the file bound under it; a
	// hard link names one file twice.
	files map[string]*fileCache
	attrs map[attrKey]kernel.Result
	stats CacheStats
	// fetchBuf is the landing buffer of read-ahead fetches.
	fetchBuf []byte
}

// fileCache is the state of one guest file, shared by every descriptor
// bound to it.
type fileCache struct {
	// names key this file in redirCache.files: none for a file unlinked
	// or replaced while open.
	names []string
	fds   []*fdCache
	// pages maps page index -> *list.Element whose value is *cachedPage.
	pages map[int64]*list.Element
	// size is the guest-side file size; valid only when sizeValid. It is
	// re-learned (fstat) after any forwarded call that may change it.
	size      int64
	sizeValid bool
}

// fdCache is the per-remote-descriptor state.
type fdCache struct {
	guestFD int
	file    *fileCache
	// owner is the last host task that touched this descriptor through
	// the cache: its guest fd only resolves in that task's proxy, so
	// every flush of this descriptor rides the owner's proxy.
	owner *kernel.Task
	// dirty holds buffered write extents, sorted by offset, disjoint.
	dirty      []wext
	dirtyBytes int
	dirtySince time.Duration
	// next is where this descriptor's previous read ended. A miss that
	// starts there, or at offset 0, is sequential and earns read-ahead.
	next int64
	// wbErr is a failed write-back of this descriptor's data that another
	// call ran; its next flushing call (fsync, close) reports it once.
	wbErr error
}

type cachedPage struct {
	owner *fileCache
	idx   int64
	// data is always a full page, zero-padded past end-of-file.
	data []byte
}

// wext is one buffered write extent.
type wext struct {
	off  int64
	data []byte
}

// attrKey names one cached path-call result. The caller's UID is part of
// it: the guest's permission check ran for that UID only.
type attrKey struct {
	nr   abi.SyscallNr
	path string
	aux  int // disambiguates calls with a scalar argument (access mode)
	uid  int
}

func newRedirCache() *redirCache {
	return &redirCache{
		cfg: redirCacheConfig{
			readAhead:  DefaultReadAheadPages,
			budget:     DefaultCacheBudgetBytes,
			flushDelay: DefaultCacheFlushDelay,
		},
		lru:   list.New(),
		fds:   make(map[*kernel.FDEntry]*fdCache),
		files: make(map[string]*fileCache),
		attrs: make(map[attrKey]kernel.Result),
	}
}

// snapshot returns a copy of the counters.
func (c *redirCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// invalidateRedirCache wipes every entry for the given boot generation.
// Buffered writes are discarded: a container restart loses unflushed data
// exactly like an OS crash loses its page cache.
func (l *Layer) invalidateRedirCache(gen int) {
	c := l.cache
	if c == nil {
		return
	}
	c.mu.Lock()
	dropped := c.lru.Len()
	for _, fc := range c.fds {
		dropped += len(fc.dirty)
	}
	for el := c.lru.Front(); el != nil; el = c.lru.Front() {
		c.retireLocked(el)
	}
	c.fds = make(map[*kernel.FDEntry]*fdCache)
	c.files = make(map[string]*fileCache)
	c.attrs = make(map[attrKey]kernel.Result)
	c.stats.Invalidations++
	c.mu.Unlock()
	if l.trace != nil {
		l.trace.Record(sim.EvCache, "redirection cache invalidated (generation %d, %d entries dropped)", gen, dropped)
	}
}

// rekeyRedirCache is invalidateRedirCache's sibling for snapshot restores.
// A restore does not rewind the host-persistent filesystem the guest
// serves, so clean pages and attribute entries are kept across the new
// generation; a stale fc.guestFD surfaces EBADF on next use. Dirty
// extents never reached the guest and die with it (crash semantics),
// taking their file's size knowledge with them.
func (l *Layer) rekeyRedirCache(gen int) (pagesKept, attrsKept, dirtyDropped int) {
	c := l.cache
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	for _, fc := range c.fds {
		if len(fc.dirty) > 0 {
			dirtyDropped += len(fc.dirty)
			fc.discardDirty()
			fc.file.sizeValid = false
		}
	}
	pagesKept, attrsKept = c.lru.Len(), len(c.attrs)
	c.stats.Invalidations++
	c.mu.Unlock()
	if l.trace != nil {
		l.trace.Record(sim.EvCache,
			"redirection cache rekeyed to generation %d: %d pages and %d attrs kept, %d dirty extents dropped",
			gen, pagesKept, attrsKept, dirtyDropped)
	}
	return pagesKept, attrsKept, dirtyDropped
}

// --- files and descriptors ----------------------------------------------

// fdLocked returns the per-descriptor state, refreshing the owning task;
// a descriptor first seen here binds to the file its path names now.
func (c *redirCache) fdLocked(e *kernel.FDEntry, t *kernel.Task) *fdCache {
	if fc, ok := c.fds[e]; ok {
		fc.owner = t
		return fc
	}
	return c.bindLocked(e, t, c.fileLocked(e.Path))
}

func (c *redirCache) bindLocked(e *kernel.FDEntry, t *kernel.Task, f *fileCache) *fdCache {
	fc := &fdCache{guestFD: e.GuestFD, file: f, owner: t}
	f.fds = append(f.fds, fc)
	c.fds[e] = fc
	return fc
}

// fileLocked returns the file bound under the absolute path p, creating
// it.
func (c *redirCache) fileLocked(p string) *fileCache {
	if f, ok := c.files[p]; ok {
		return f
	}
	f := &fileCache{names: []string{p}, pages: make(map[int64]*list.Element)}
	c.files[p] = f
	return f
}

// guestRegular reports whether guest descriptor gfd of t's proxy names a
// regular file, symlinks followed. The proxy knows what it opened; the
// model reads its descriptor table rather than widen the open's reply, so
// no charge changes. Procfs and device files must never be held back.
func (l *Layer) guestRegular(t *kernel.Task, gfd int) bool {
	if px := l.proxyMgr().ProxyFor(t.PID); px != nil {
		e := px.FD(gfd)
		return e != nil && e.Kind == kernel.FDFile && e.File.Inode().Type == vfs.TypeRegular
	}
	return false
}

// bindFD binds a freshly opened (or duplicated) descriptor to its file at
// once, so a rename before its first cached call cannot bind it to
// whatever the old path names by then. A dup shares the file of from.
// Only a descriptor the container reports as a regular file binds
// (FDEntry.Regular); every call on any other goes to the container.
func (l *Layer) bindFD(t *kernel.Task, e, from *kernel.FDEntry) {
	c := l.cache
	if c == nil || e == nil {
		return
	}
	if e.Regular = l.guestRegular(t, e.GuestFD); !e.Regular {
		return
	}
	c.mu.Lock()
	if src, ok := c.fds[from]; ok {
		c.bindLocked(e, t, src.file)
	} else {
		c.fdLocked(e, t)
	}
	c.mu.Unlock()
}

// forgetFD unbinds a closed descriptor; the file's last close forgets the
// file and its pages. Dirty data must have been flushed (or deliberately
// discarded) by the caller.
func (l *Layer) forgetFD(e *kernel.FDEntry) {
	c := l.cache
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fc, ok := c.fds[e]
	if !ok {
		return
	}
	delete(c.fds, e)
	f := fc.file
	f.fds = slices.DeleteFunc(f.fds, func(o *fdCache) bool { return o == fc })
	if len(f.fds) > 0 {
		return
	}
	c.dropPagesLocked(f)
	for _, n := range f.names {
		if c.files[n] == f {
			delete(c.files, n)
		}
	}
}

// dropPagesLocked discards a file's clean pages and size knowledge, after
// a call that may have changed it under the cache.
func (c *redirCache) dropPagesLocked(f *fileCache) {
	for _, el := range f.pages {
		c.retireLocked(el)
	}
	f.sizeValid = false
}

// unkeyLocked forgets the file bound under p (unlinked, or replaced by a
// rename). Its open descriptors keep sharing it.
func (c *redirCache) unkeyLocked(p string) {
	if f, ok := c.files[p]; ok {
		delete(c.files, p)
		f.names = slices.DeleteFunc(f.names, func(n string) bool { return n == p })
	}
}

// renameLocked moves every file bound at or below from to the matching
// path below to.
func (c *redirCache) renameLocked(from, to string) {
	if from == to {
		return // the guest renames a name onto itself as a no-op
	}
	c.unkeyLocked(to)
	var moved []string
	for n := range c.files {
		if rest, ok := strings.CutPrefix(n, from); ok && (rest == "" || rest[0] == '/') {
			moved = append(moved, n)
		}
	}
	for _, n := range moved {
		c.aliasLocked(n, to+n[len(from):])
		c.unkeyLocked(n)
	}
}

// aliasLocked binds the file bound under from under to as well.
func (c *redirCache) aliasLocked(from, to string) {
	if f, ok := c.files[from]; ok {
		c.unkeyLocked(to)
		c.files[to] = f
		f.names = append(f.names, to)
	}
}

// retireLocked unlinks a resident page from the LRU and its file and
// keeps its buffer as a spare, up to spareBudgetShare of the budget (the
// rest go to the GC, so a large purge cannot pin memory).
func (c *redirCache) retireLocked(el *list.Element) {
	cp := c.lru.Remove(el).(*cachedPage)
	delete(cp.owner.pages, cp.idx)
	c.bytes -= cachePageSize
	if int64(len(c.spare)+1)*cachePageSize <= c.cfg.budget/spareBudgetShare {
		c.spare = append(c.spare, cp.data)
	}
}

// purgeAttrLocked removes attribute entries for a path and its parent
// directory (a create/unlink changes the parent's getdents listing).
func (c *redirCache) purgeAttrLocked(p string) {
	if p == "" {
		return
	}
	parent := path.Dir(p)
	for k := range c.attrs {
		if k.path == p || k.path == parent {
			delete(c.attrs, k)
		}
	}
}

// purgeFileAttrsLocked purges the attribute entries of every name of f.
func (c *redirCache) purgeFileAttrsLocked(f *fileCache) {
	for _, n := range f.names {
		c.purgeAttrLocked(n)
	}
}

// --- dirty-extent bookkeeping -------------------------------------------

func (f *fdCache) discardDirty() {
	f.dirty = nil
	f.dirtyBytes = 0
	f.dirtySince = 0
}

// dirtyCovers reports whether [a, b) is fully covered by buffered extents.
func (f *fdCache) dirtyCovers(a, b int64) bool {
	for _, ext := range f.dirty {
		if a >= b {
			break
		}
		if end := ext.off + int64(len(ext.data)); end > a {
			if ext.off > a {
				return false
			}
			a = end
		}
	}
	return a >= b
}

// addDirty buffers one write, merging it with any overlapping or adjacent
// extents. Reports whether it coalesced into existing dirty data.
func (f *fdCache) addDirty(off int64, data []byte) bool {
	ext := wext{off: off, data: bytes.Clone(data)}
	end := off + int64(len(data))

	merged := false
	out := f.dirty[:0]
	for _, old := range f.dirty {
		oldEnd := old.off + int64(len(old.data))
		if oldEnd < ext.off || old.off > end {
			out = append(out, old)
			continue
		}
		// Overlapping or adjacent: merge old into ext, new data wins.
		merged = true
		lo := min(ext.off, old.off)
		hi := max(end, oldEnd)
		joined := make([]byte, hi-lo)
		copy(joined[old.off-lo:], old.data)
		copy(joined[ext.off-lo:], ext.data)
		ext = wext{off: lo, data: joined}
		end = hi
	}
	out = append(out, ext)
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	f.dirty = out
	f.dirtyBytes = 0
	for _, e := range f.dirty {
		f.dirtyBytes += len(e.data)
	}
	return merged
}

// --- layer entry points --------------------------------------------------

// cacheBypassed reports whether the cache must not be consulted for this
// snapshot: absent, or degraded (fail-fast) mode is active.
func (l *Layer) cacheBypassed(st *layerState) bool {
	return l.cache == nil || st.degraded
}

// cachedFDCall intercepts descriptor calls on a remote fd when the cache
// is enabled. It either serves the call (handled=true) or performs the
// coherence flush and lets the caller forward normally (handled=false).
func (l *Layer) cachedFDCall(st *layerState, t *kernel.Task, e *kernel.FDEntry, args *kernel.Args) (kernel.Result, bool) {
	// Pages are shared by the whole file: a descriptor that may not read
	// (or write) them gets the guest's answer (EBADF) instead.
	switch {
	case !e.Regular:
	case args.Nr == abi.SysPread64 && e.Flags.Readable():
		l.policy.cacheServed.Add(1)
		return l.cachedPread(st, t, e, args)
	case args.Nr == abi.SysPwrite64 && e.Flags.Writable():
		l.policy.cacheServed.Add(1)
		return l.cachedPwrite(st, t, e, args)
	}
	// Coherence rule: every call not served above sees the guest's view,
	// so any buffered data for this file is written back first. No entry
	// is created here — sockets and such never get one.
	if res, failed := l.flushFDFor(st, t, e); failed {
		return res, true
	}
	return kernel.Result{}, false
}

// cachedPread serves a positioned read from host memory, fetching on a
// miss — with read-ahead when the read is sequential.
func (l *Layer) cachedPread(st *layerState, t *kernel.Task, e *kernel.FDEntry, args *kernel.Args) (kernel.Result, bool) {
	n := len(args.Buf)
	if n == 0 || args.Off < 0 {
		return kernel.Result{}, false
	}
	c := l.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	fc := c.fdLocked(e, t)
	// Coherence with the zero-copy path: a read overlapping an in-flight
	// granted write to the same file must never be served from cached
	// (pre-write) pages. Bypass the cache and forward — per-descriptor
	// FIFO ordering on the transport puts the read behind the write.
	if l.grants != nil && l.grants.overlapsLiveWrite(fc.file, args.Off, int64(n)) {
		l.counters.grantCacheBypass.Add(1)
		return kernel.Result{}, false
	}
	l.flushOthersLocked(st, fc.file, fc)
	l.maybeFlushByDeadlineLocked(st, t, fc)

	cost := l.model.CacheLookup
	got, ok := fc.composeLocked(c, args.Off, args.Buf)
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
		l.clock.Charge(t.Lane, cost)
		cost = 0
		// Make the guest authoritative (flush), learn the size if needed,
		// then fetch the span (plus read-ahead) in one chunked round-trip.
		if res, failed := l.flushLocked(st, t, fc); failed {
			return res, true
		}
		// A failed fstat (not a regular file, or the container went away
		// mid-call) lets the uncached path report the real errno.
		if !fc.file.sizeValid && !l.learnSizeLocked(st, t, fc) {
			return kernel.Result{}, false
		}
		sequential := args.Off == 0 || args.Off == fc.next
		if res, ok := l.fetchLocked(st, t, fc, args.Off, n, sequential); !ok {
			return res, true
		}
		// Not composable after a successful fetch should not happen; the
		// uncached path answers rather than a guess.
		if got, ok = fc.composeLocked(c, args.Off, args.Buf); !ok {
			return kernel.Result{}, false
		}
	}
	fc.next = args.Off + int64(got)
	l.clock.Charge(t.Lane, cost+time.Duration(pagesSpanned(args.Off, got))*l.model.CacheHitPerPage)
	return kernel.Result{Ret: int64(got), Data: args.Buf[:got]}, true
}

// cachedPwrite buffers a positioned write in the coalescing buffer.
func (l *Layer) cachedPwrite(st *layerState, t *kernel.Task, e *kernel.FDEntry, args *kernel.Args) (kernel.Result, bool) {
	n := len(args.Buf)
	if n == 0 || args.Off < 0 {
		return kernel.Result{}, false
	}
	c := l.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	fc := c.fdLocked(e, t)
	// Writes land in the guest in call order: another descriptor's older
	// buffered data goes first.
	l.flushOthersLocked(st, fc.file, fc)

	if len(fc.dirty) == 0 {
		fc.dirtySince = l.clock.Now()
	}
	if fc.addDirty(args.Off, args.Buf) {
		c.stats.CoalescedWrites++
	}
	c.stats.Hits++
	pages := pagesSpanned(args.Off, n)
	l.clock.Charge(t.Lane, l.model.CacheLookup+time.Duration(pages)*l.model.CacheWriteBufferPerPage)
	// The write changes what stat would report for the backing path.
	c.purgeFileAttrsLocked(fc.file)

	// Flush when the buffer reaches the read-ahead window (k sequential
	// page writes -> ~k/N round-trips) or its deadline passed.
	if int64(fc.dirtyBytes) >= int64(c.cfg.readAhead)*cachePageSize {
		if res, failed := l.flushLocked(st, t, fc); failed {
			return res, true
		}
	} else {
		l.maybeFlushByDeadlineLocked(st, t, fc)
	}
	return kernel.Result{Ret: int64(n)}, true
}

// composeLocked assembles [off, off+len(dst)) from the file's clean pages
// overlaid with this descriptor's dirty extents straight into dst,
// returning how many bytes it filled (fewer at end of file). ok=false
// means the range is not fully resident, and dst is untouched.
func (fc *fdCache) composeLocked(c *redirCache, off int64, dst []byte) (int, bool) {
	f := fc.file
	end := off + int64(len(dst))
	if !f.sizeValid {
		// Size unknown: only a fully dirty-covered range is servable
		// (its content is independent of what lies beneath).
		if !fc.dirtyCovers(off, end) {
			return 0, false
		}
	} else {
		eff := f.size
		if n := len(fc.dirty); n > 0 {
			eff = max(eff, fc.dirty[n-1].off+int64(len(fc.dirty[n-1].data)))
		}
		if off >= eff {
			return 0, true // read at or past EOF
		}
		end = min(end, eff)
		for idx := off / cachePageSize; idx <= (end-1)/cachePageSize; idx++ {
			if _, ok := f.pages[idx]; ok {
				continue
			}
			// Bytes at/past the guest file size are holes (zeros) unless
			// dirty; bytes below it must be buffered to be served.
			a, b := spanWithin(idx, off, end)
			if !fc.dirtyCovers(a, min(b, f.size)) {
				return 0, false
			}
		}
	}

	// Pages fill their span; a span with no current page is a hole
	// (zeros) under whatever dirty data overlays it below.
	out := dst[:end-off]
	for idx := off / cachePageSize; idx <= (end-1)/cachePageSize; idx++ {
		a, b := spanWithin(idx, off, end)
		el, ok := f.pages[idx]
		if !ok {
			clear(out[a-off : b-off])
			continue
		}
		pStart := idx * cachePageSize
		copy(out[a-off:b-off], el.Value.(*cachedPage).data[a-pStart:b-pStart])
		c.lru.MoveToFront(el)
	}
	for _, ext := range fc.dirty {
		a, b := max(ext.off, off), min(ext.off+int64(len(ext.data)), end)
		if a < b {
			copy(out[a-off:b-off], ext.data[a-ext.off:b-ext.off])
		}
	}
	return len(out), true
}

// spanWithin clips [off, end) to page idx.
func spanWithin(idx, off, end int64) (int64, int64) {
	a := idx * cachePageSize
	return max(a, off), min(a+cachePageSize, end)
}

// learnSizeLocked fstats the guest descriptor to establish the exact file
// size, reporting whether it could.
func (l *Layer) learnSizeLocked(st *layerState, t *kernel.Task, fc *fdCache) bool {
	res := l.forwardOn(st, t, &kernel.Args{Nr: abi.SysFstat, FD: fc.guestFD})
	fc.file.size, fc.file.sizeValid = res.Ret, res.Ok()
	return res.Ok()
}

// fetchLocked pulls the pages covering [off, off+n) from the container in
// one chunked round-trip, widened to the read-ahead window when the read
// is sequential. A random miss fetches exactly the pages it spans.
func (l *Layer) fetchLocked(st *layerState, t *kernel.Task, fc *fdCache, off int64, n int, sequential bool) (kernel.Result, bool) {
	c := l.cache
	f := fc.file
	fetchOff := (off / cachePageSize) * cachePageSize
	want := int64(pagesSpanned(off, n))
	if sequential {
		want = max(want, int64(c.cfg.readAhead))
	}
	size := want * cachePageSize
	// Never read past the known end of file.
	if f.sizeValid && fetchOff+size > f.size {
		size = f.size - fetchOff
		if size <= 0 {
			return kernel.Result{}, true // nothing below EOF to fetch
		}
	}
	// The reply lands in the cache's fetch buffer (held under c.mu) and
	// is copied from there into recycled page buffers.
	if int64(cap(c.fetchBuf)) < size {
		c.fetchBuf = make([]byte, size)
	}
	res := l.forwardOn(st, t, &kernel.Args{Nr: abi.SysPread64, FD: fc.guestFD, Buf: c.fetchBuf[:size], Off: fetchOff})
	if !res.Ok() {
		return res, false
	}
	got := res.Data
	if int64(len(got)) < size {
		// Short read: the file ends here.
		f.size = fetchOff + int64(len(got))
		f.sizeValid = true
	}
	for pOff := int64(0); pOff < int64(len(got)); pOff += cachePageSize {
		c.storePageLocked(f, (fetchOff+pOff)/cachePageSize, got[pOff:])
	}
	fetched := pagesSpanned(fetchOff, len(got))
	if extra := fetched - pagesSpanned(off, n); extra > 0 {
		c.stats.ReadAheadPages += extra
	}
	if l.trace != nil {
		l.trace.Record(sim.EvCache, "fetch: %d pages of guest fd %d at offset %d (sequential=%v)", fetched, fc.guestFD, fetchOff, sequential)
	}
	return res, true
}

// storePageLocked installs a clean copy of one page: the first page of
// src, zero-padded. A resident entry is refilled in place; a new one takes
// a spare buffer, else fresh memory within the budget, else the LRU
// victim's element, entry and buffer in place.
func (c *redirCache) storePageLocked(f *fileCache, idx int64, src []byte) {
	if el, ok := f.pages[idx]; ok {
		fillPage(el.Value.(*cachedPage).data, src)
		c.lru.MoveToFront(el)
		return
	}
	var data []byte
	switch n := len(c.spare); {
	case n > 0:
		data = c.spare[n-1]
		c.spare[n-1] = nil
		c.spare = c.spare[:n-1]
	case c.bytes+cachePageSize <= c.cfg.budget:
		data = make([]byte, cachePageSize)
	default:
		victim := c.lru.Back()
		if victim == nil {
			return // a budget below one page caches nothing
		}
		vp := victim.Value.(*cachedPage)
		delete(vp.owner.pages, vp.idx)
		vp.owner, vp.idx = f, idx
		fillPage(vp.data, src)
		f.pages[idx] = victim
		c.lru.MoveToFront(victim)
		return
	}
	fillPage(data, src)
	f.pages[idx] = c.lru.PushFront(&cachedPage{owner: f, idx: idx, data: data})
	c.bytes += cachePageSize
}

// fillPage copies src into a page buffer and zeroes the rest.
func fillPage(page, src []byte) {
	clear(page[copy(page, src):])
}

// maybeFlushByDeadlineLocked flushes a descriptor whose oldest buffered
// write has exceeded the flush deadline.
func (l *Layer) maybeFlushByDeadlineLocked(st *layerState, t *kernel.Task, fc *fdCache) {
	if len(fc.dirty) > 0 && l.clock.Now()-fc.dirtySince >= l.cache.cfg.flushDelay {
		l.flushDeferredLocked(st, t, fc)
	}
}

// flushDeferredLocked flushes fc for a call that cannot report fc's
// write-back error, and keeps the first such error for fc to report.
func (l *Layer) flushDeferredLocked(st *layerState, t *kernel.Task, fc *fdCache) {
	if res, failed := l.flushLocked(st, t, fc); failed && fc.wbErr == nil {
		fc.wbErr = res.Err
	}
}

// flushLocked writes every buffered extent back to the container —
// batched into a single round-trip when there is more than one — then
// folds the data into the file's clean pages. failed=true carries the
// first write-back error.
func (l *Layer) flushLocked(st *layerState, t *kernel.Task, fc *fdCache) (res kernel.Result, failed bool) {
	c := l.cache
	if len(fc.dirty) == 0 {
		return kernel.Result{}, false
	}
	extents := fc.dirty
	// The buffer empties regardless of outcome: like kernel writeback, a
	// failed flush surfaces its error once and does not retry forever.
	fc.discardDirty()

	calls := make([]*kernel.Args, len(extents))
	for i, ext := range extents {
		calls[i] = &kernel.Args{Nr: abi.SysPwrite64, FD: fc.guestFD, Buf: ext.data, Off: ext.off}
	}
	var results []kernel.Result
	if len(calls) == 1 {
		results = []kernel.Result{l.forwardOn(st, t, calls[0])}
	} else {
		var err error
		results, err = l.forwardBatch(st, t, calls)
		if err != nil {
			return kernel.Result{Ret: -1, Err: err}, true
		}
	}
	c.stats.Flushes++
	// Fold each extent that DID land into the clean pages even when a
	// later call in the batch failed: the container applied those writes,
	// so cached reads must see them. The first failure is reported.
	f := fc.file
	for i, r := range results {
		if !r.Ok() {
			if !failed {
				res, failed = r, true
			}
			continue
		}
		if end := extents[i].off + int64(len(extents[i].data)); f.sizeValid && end > f.size {
			f.size = end
		}
		l.foldExtentLocked(f, extents[i])
	}
	c.purgeFileAttrsLocked(f)
	if l.trace != nil {
		l.trace.Record(sim.EvCache, "flush: wrote %d coalesced extents to guest fd %d", len(extents), fc.guestFD)
	}
	return res, failed
}

// foldExtentLocked merges one flushed extent into the file's clean pages.
func (l *Layer) foldExtentLocked(f *fileCache, ext wext) {
	c := l.cache
	end := ext.off + int64(len(ext.data))
	for idx := ext.off / cachePageSize; idx <= (end-1)/cachePageSize; idx++ {
		pStart := idx * cachePageSize
		a, b := spanWithin(idx, ext.off, end)
		if a == pStart && b == pStart+cachePageSize {
			c.storePageLocked(f, idx, ext.data[a-ext.off:])
			continue
		}
		if el, ok := f.pages[idx]; ok {
			copy(el.Value.(*cachedPage).data[a-pStart:b-pStart], ext.data[a-ext.off:b-ext.off])
			c.lru.MoveToFront(el)
		}
	}
}

// flushOthersLocked writes back what descriptors of f other than self
// have buffered, each through its owner task (its guest fd resolves only
// in that task's proxy). Their write-back errors are not the caller's:
// each descriptor keeps its own to report. A nil f flushes nothing.
func (l *Layer) flushOthersLocked(st *layerState, f *fileCache, self *fdCache) {
	if f == nil {
		return
	}
	for _, o := range f.fds {
		if o != self && len(o.dirty) > 0 {
			l.flushDeferredLocked(st, o.owner, o)
		}
	}
}

// flushFDFor writes back the buffered data of a descriptor's file — the
// other descriptors' through their owners, then its own — before a call
// the guest serves (close, dup, fsync, granted I/O, fused chains).
// Returns its own flush error, or else its deferred one, once.
func (l *Layer) flushFDFor(st *layerState, t *kernel.Task, e *kernel.FDEntry) (kernel.Result, bool) {
	c := l.cache
	if c == nil {
		return kernel.Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fc, ok := c.fds[e]
	if !ok {
		return kernel.Result{}, false
	}
	l.flushOthersLocked(st, fc.file, fc)
	res, failed := l.flushLocked(st, t, fc)
	if err := fc.wbErr; err != nil && !failed {
		res, failed = kernel.Result{Ret: -1, Err: err}, true
	}
	fc.wbErr = nil
	return res, failed
}

// flushFile writes back every descriptor's buffered data for the file
// behind e and the file at guest path p, before a fused chain uses them.
func (l *Layer) flushFile(st *layerState, e *kernel.FDEntry, p string) {
	c := l.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc, ok := c.fds[e]; ok {
		l.flushOthersLocked(st, fc.file, nil)
	}
	l.flushOthersLocked(st, c.files[p], nil)
}

// noteForwardedFDOp drops the file's pages after a forwarded call that
// can change it under the cache (Pwrite64 lands here only when the policy
// routed it around the cache).
func (l *Layer) noteForwardedFDOp(e *kernel.FDEntry, nr abi.SyscallNr) {
	switch nr {
	case abi.SysWrite, abi.SysFtruncate, abi.SysPwrite64, abi.SysWritev, abi.SysPwritev:
		l.noteFileWrite(l.fileOf(e))
	}
}

// fileOf returns the file a descriptor is bound to, or nil (no cache, or
// a descriptor the cache never saw).
func (l *Layer) fileOf(e *kernel.FDEntry) *fileCache {
	c := l.cache
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc, ok := c.fds[e]; ok {
		return fc.file
	}
	return nil
}

// noteFileWrite drops the clean pages and attribute entries of f after a
// write around the cache (cursor or vectored, granted, sendfile, msync).
// Other files keep theirs, whatever their guest fd numbers.
func (l *Layer) noteFileWrite(f *fileCache) {
	if f == nil {
		return
	}
	c := l.cache
	c.mu.Lock()
	c.dropPagesLocked(f)
	c.purgeFileAttrsLocked(f)
	c.stats.Invalidations++
	c.mu.Unlock()
}

// --- path-attribute cache ------------------------------------------------

// attrCacheable reports idempotent redirect-class path calls.
func attrCacheable(nr abi.SyscallNr) bool {
	return nr == abi.SysStat || nr == abi.SysAccess || nr == abi.SysReadlink || nr == abi.SysGetdents
}

// attrMutates reports path calls that must purge attribute entries (and
// flush/invalidate page caches of the affected path).
func attrMutates(nr abi.SyscallNr) bool {
	switch nr {
	case abi.SysMkdir, abi.SysMkdirat, abi.SysRmdir, abi.SysUnlink,
		abi.SysChmod, abi.SysChown, abi.SysTruncate, abi.SysMknod,
		abi.SysRename, abi.SysLink, abi.SysSymlink:
		return true
	}
	return false
}

// cachedPathCall serves idempotent path calls from the attribute cache and
// keeps it coherent around mutating ones. handled=false means the caller
// must forward; it then reports the outcome via notePathResult.
func (l *Layer) cachedPathCall(st *layerState, t *kernel.Task, args *kernel.Args, p string) (kernel.Result, bool) {
	c := l.cache
	if !attrCacheable(args.Nr) {
		if attrMutates(args.Nr) {
			// Path ops write back buffered data of the files they name
			// before the guest acts; all but rename and link may change
			// the content, so the pages go too.
			c.mu.Lock()
			for _, q := range [2]string{p, args.Path2} {
				f := c.files[q]
				l.flushOthersLocked(st, f, nil)
				if f != nil && args.Nr != abi.SysRename && args.Nr != abi.SysLink {
					c.dropPagesLocked(f)
				}
			}
			c.mu.Unlock()
		}
		return kernel.Result{}, false
	}
	key := attrKey{nr: args.Nr, path: p, aux: args.Size, uid: t.Cred.UID}
	c.mu.Lock()
	// Buffered writes change what stat (and friends) report: write them
	// back first, which also purges this path's attribute entries.
	l.flushOthersLocked(st, c.files[p], nil)
	res, hit := c.attrs[key]
	if hit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	c.mu.Unlock()
	l.clock.Charge(t.Lane, l.model.CacheLookup)
	res.Data = bytes.Clone(res.Data)
	return res, hit
}

// notePathResult caches a successful idempotent result for the caller's
// UID, or purges entries invalidated by a mutating path call and moves
// the file map to match a successful unlink, rename or link.
func (l *Layer) notePathResult(t *kernel.Task, args *kernel.Args, p string, res kernel.Result) {
	c := l.cache
	if c == nil {
		return
	}
	if attrCacheable(args.Nr) {
		if !res.Ok() {
			return
		}
		c.mu.Lock()
		if len(c.attrs) >= maxAttrEntries {
			c.attrs = make(map[attrKey]kernel.Result)
		}
		res.Data = bytes.Clone(res.Data)
		c.attrs[attrKey{nr: args.Nr, path: p, aux: args.Size, uid: t.Cred.UID}] = res
		c.mu.Unlock()
		return
	}
	if attrMutates(args.Nr) {
		c.mu.Lock()
		c.purgeAttrLocked(p)
		if args.Path2 != "" {
			c.purgeAttrLocked(args.Path2)
		}
		if res.Ok() {
			switch args.Nr {
			case abi.SysUnlink:
				c.unkeyLocked(p)
			case abi.SysRename:
				c.renameLocked(p, args.Path2)
			case abi.SysLink:
				c.aliasLocked(p, args.Path2)
			}
		}
		c.stats.Invalidations++
		c.mu.Unlock()
	}
}

// noteRemoteOpen keeps the cache coherent after a forwarded open: O_CREAT
// changes the parent listing and stat results; O_TRUNC discards the file
// content, so its clean pages — and buffered writes, which the truncate
// happens-after — of every descriptor of the file are dropped.
func (l *Layer) noteRemoteOpen(p string, flags abi.OpenFlag) {
	c := l.cache
	if c == nil || flags&(abi.OCreat|abi.OTrunc) == 0 {
		return
	}
	c.mu.Lock()
	c.purgeAttrLocked(p)
	if f, ok := c.files[p]; ok && flags&abi.OTrunc != 0 {
		for _, fc := range f.fds {
			fc.discardDirty()
		}
		c.dropPagesLocked(f)
		c.stats.Invalidations++
	}
	c.mu.Unlock()
}

// pagesSpanned counts the pages the byte range [off, off+n) touches.
func pagesSpanned(off int64, n int) int {
	if n <= 0 {
		return 0
	}
	return int((off+int64(n)-1)/cachePageSize - off/cachePageSize + 1)
}

// FlushRedirCache writes back every buffered extent (tests, explicit
// sync points, and migration's pre-drain write-back). Each descriptor
// flushes through the task that last touched it: its guest fd only
// resolves in that task's proxy. It is a no-op when the cache is off.
func (l *Layer) FlushRedirCache() error {
	c := l.cache
	if c == nil {
		return nil
	}
	st := l.currentState()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, fc := range c.fds {
		if res, failed := l.flushLocked(st, fc.owner, fc); failed {
			return res.Err
		}
	}
	return nil
}
