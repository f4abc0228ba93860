package anception

import (
	"bytes"
	"path"
	"slices"
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
//   - clean pages live under an LRU byte budget, with dropped page
//     entries kept whole, buffer included, as spares (up to an eighth of
//     it); dirty data is bounded by the flush threshold (read-ahead
//     window) and the flush deadline.

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

	// spareBudgetShare: spare page entries and free extent buffers
	// together may hold up to 1/8 of the clean-page budget.
	spareBudgetShare = 8
	// maxFreeExtentBytes bounds the free list of write-coalescing extent
	// buffers, within the spare share above.
	maxFreeExtentBytes = 64 << 10
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
	// bytes counts resident clean pages; spare holds dropped page
	// entries, buffer included, for reuse. Together they stay within the
	// budget.
	bytes int64
	spare []*cachedPage
	// extFree holds the buffers of flushed or merged dirty extents for
	// reuse; extFreeBytes sums their capacities.
	extFree      [][]byte
	extFreeBytes int64
	// lru orders clean cached pages, most recently used at the front.
	lru pageLRU
	// fds binds each host descriptor of a regular guest file to its
	// per-descriptor state, keyed by (pid, host fd).
	fds map[fdKey]*fdCache
	// files maps an absolute guest path to the file bound under it; a
	// hard link names one file twice.
	files map[string]*fileCache
	attrs map[attrKey]kernel.Result
	stats CacheStats
	// fetchBuf is the landing buffer of read-ahead fetches.
	fetchBuf []byte
	// flushArgs, flushCalls and flushRes are flushLocked's scratch.
	flushArgs  []kernel.Args
	flushCalls []*kernel.Args
	flushRes   []kernel.Result
}

// fileCache is the state of one guest file, shared by every descriptor
// bound to it.
type fileCache struct {
	// names key this file in redirCache.files: none for a file unlinked
	// or replaced while open.
	names []string
	fds   []*fdCache
	// pages maps page index to its resident page.
	pages map[int64]*cachedPage
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
	// prev and next link a resident page into the cache's LRU.
	prev, next *cachedPage
	// data is always a full page, zero-padded past end-of-file.
	data []byte
}

// pageLRU is an intrusive LRU list of resident pages: the links live in
// the pages, so moving or adding a page allocates nothing.
type pageLRU struct {
	// root is the sentinel of the circular list: root.next is the most
	// recently used page, root.prev the least.
	root cachedPage
	n    int
}

func (l *pageLRU) init() { l.root.prev, l.root.next = &l.root, &l.root }

// back returns the least recently used page, or nil.
func (l *pageLRU) back() *cachedPage {
	if l.n == 0 {
		return nil
	}
	return l.root.prev
}

func (l *pageLRU) pushFront(cp *cachedPage) {
	cp.prev, cp.next = &l.root, l.root.next
	cp.next.prev = cp
	l.root.next = cp
	l.n++
}

func (l *pageLRU) remove(cp *cachedPage) {
	cp.prev.next, cp.next.prev = cp.next, cp.prev
	cp.prev, cp.next = nil, nil
	l.n--
}

func (l *pageLRU) moveToFront(cp *cachedPage) {
	if l.root.next != cp {
		l.remove(cp)
		l.pushFront(cp)
	}
}

// wext is one buffered write extent. data comes from the cache's extent
// free list (takeExtentLocked) and goes back to it when the extent is
// flushed, merged away or discarded.
type wext struct {
	off  int64
	data []byte
}

func (e wext) end() int64 { return e.off + int64(len(e.data)) }

// attrKey names one cached path-call result. The caller's UID is part of
// it: the guest's permission check ran for that UID only.
type attrKey struct {
	nr   abi.SyscallNr
	path string
	aux  int // disambiguates calls with a scalar argument (access mode)
	uid  int
}

func newRedirCache() *redirCache {
	c := &redirCache{
		cfg: redirCacheConfig{
			readAhead:  DefaultReadAheadPages,
			budget:     DefaultCacheBudgetBytes,
			flushDelay: DefaultCacheFlushDelay,
		},
		fds:   make(map[fdKey]*fdCache),
		files: make(map[string]*fileCache),
		attrs: make(map[attrKey]kernel.Result),
	}
	c.lru.init()
	return c
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
	dropped := c.lru.n
	for _, fc := range c.fds {
		dropped += len(fc.dirty)
	}
	for cp := c.lru.back(); cp != nil; cp = c.lru.back() {
		c.retireLocked(cp)
	}
	c.fds = make(map[fdKey]*fdCache)
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
			c.discardDirtyLocked(fc)
			fc.file.sizeValid = false
		}
	}
	pagesKept, attrsKept = c.lru.n, len(c.attrs)
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
// a descriptor first seen here (a forked child's, or one bound before a
// container restart) binds to the file its path names now. A copy of an
// entry whose descriptor was closed since finds no binding and makes
// none: it returns nil, and the call goes to the container, which never
// reuses the guest fd the copy names.
func (c *redirCache) fdLocked(d hostFD, t *kernel.Task) *fdCache {
	if fc, ok := c.fds[d.key]; ok {
		fc.owner = t
		return fc
	}
	if cur, ok := t.FD(d.key.fd); !ok || cur.GuestFD != d.GuestFD {
		return nil
	}
	return c.bindLocked(d.key, d.GuestFD, t, c.fileLocked(d.Path))
}

// bindLocked binds host descriptor k, naming guest fd gfd, to f. A dup2
// onto an open descriptor rebinds its number: the old binding is dropped
// first.
func (c *redirCache) bindLocked(k fdKey, gfd int, t *kernel.Task, f *fileCache) *fdCache {
	c.unbindLocked(k)
	fc := &fdCache{guestFD: gfd, file: f, owner: t}
	f.fds = append(f.fds, fc)
	c.fds[k] = fc
	return fc
}

// fileLocked returns the file bound under the absolute path p, creating
// it.
func (c *redirCache) fileLocked(p string) *fileCache {
	if f, ok := c.files[p]; ok {
		return f
	}
	f := &fileCache{names: []string{p}, pages: make(map[int64]*cachedPage)}
	c.files[p] = f
	return f
}

// guestRegular reports whether guest descriptor gfd of t's proxy names a
// regular file, symlinks followed; only the cache asks, so it is false
// when the cache is off. The proxy knows what it opened; the model reads
// its descriptor table rather than widen the open's reply, so no charge
// changes. Procfs and device files must never be held back.
func (l *Layer) guestRegular(t *kernel.Task, gfd int) bool {
	if l.cache == nil {
		return false
	}
	if px := l.proxyMgr().ProxyFor(t.PID); px != nil {
		e, ok := px.FD(gfd)
		return ok && e.Kind == kernel.FDFile && e.File.Inode().Type == vfs.TypeRegular
	}
	return false
}

// bindFD binds a freshly opened (or duplicated) descriptor to its file at
// once, so a rename before its first cached call cannot bind it to
// whatever the old path names by then. A dup shares the file of the
// descriptor from names, when that one is bound. Only a descriptor the
// container reported as a regular file binds (FDEntry.Regular, set when
// its entry was built); every call on any other goes to the container.
func (l *Layer) bindFD(t *kernel.Task, d hostFD, from *fdKey) {
	c := l.cache
	if c == nil || !d.Regular {
		return
	}
	c.mu.Lock()
	var src *fdCache
	if from != nil {
		src = c.fds[*from]
	}
	if src != nil {
		c.bindLocked(d.key, d.GuestFD, t, src.file)
	} else {
		c.fdLocked(d, t)
	}
	c.mu.Unlock()
}

// forgetFD unbinds a closed descriptor; the file's last close forgets the
// file and its pages. Dirty data must have been flushed (or deliberately
// discarded) by the caller.
func (l *Layer) forgetFD(k fdKey) {
	c := l.cache
	if c == nil {
		return
	}
	c.mu.Lock()
	c.unbindLocked(k)
	c.mu.Unlock()
}

// unbindLocked drops the binding of host descriptor k, if any, and
// forgets its file at the file's last descriptor.
func (c *redirCache) unbindLocked(k fdKey) {
	fc, ok := c.fds[k]
	if !ok {
		return
	}
	delete(c.fds, k)
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
	for _, cp := range f.pages {
		c.retireLocked(cp)
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
// keeps the whole entry as a spare, up to spareBudgetShare of the budget
// (the rest go to the GC, so a large purge cannot pin memory).
func (c *redirCache) retireLocked(cp *cachedPage) {
	c.lru.remove(cp)
	delete(cp.owner.pages, cp.idx)
	cp.owner = nil
	c.bytes -= cachePageSize
	if c.spareBytesLocked()+cachePageSize <= c.cfg.budget/spareBudgetShare {
		c.spare = append(c.spare, cp)
	}
}

// spareBytesLocked is what the spare pages and free extent buffers hold.
func (c *redirCache) spareBytesLocked() int64 {
	return int64(len(c.spare))*cachePageSize + c.extFreeBytes
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

// discardDirtyLocked drops a descriptor's buffered extents unwritten,
// recycling their buffers; the extent slice keeps its capacity.
func (c *redirCache) discardDirtyLocked(f *fdCache) {
	c.recycleExtentsLocked(f.dirty)
	f.dirty = f.dirty[:0]
	f.dirtyBytes = 0
	f.dirtySince = 0
}

// recycleExtentsLocked returns the extents' buffers to the free list and
// clears the extents.
func (c *redirCache) recycleExtentsLocked(exts []wext) {
	for i := range exts {
		c.putExtentLocked(exts[i].data)
	}
	clear(exts)
}

// takeExtentLocked returns a buffer of n bytes: the smallest free one that
// holds them, else a new one rounded up to whole pages. Its content is
// stale; the caller overwrites all n bytes.
func (c *redirCache) takeExtentLocked(n int) []byte {
	best := -1
	for i, b := range c.extFree {
		if cap(b) >= n && (best < 0 || cap(b) < cap(c.extFree[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]byte, n, (int64(n)+cachePageSize-1)/cachePageSize*cachePageSize)
	}
	b := c.extFree[best]
	last := len(c.extFree) - 1
	c.extFree[best] = c.extFree[last]
	c.extFree[last] = nil
	c.extFree = c.extFree[:last]
	c.extFreeBytes -= int64(cap(b))
	return b[:n]
}

// putExtentLocked keeps an extent buffer for reuse while the free list
// stays within maxFreeExtentBytes and the spare share of the budget; the
// rest go to the GC.
func (c *redirCache) putExtentLocked(b []byte) {
	size := int64(cap(b))
	if c.extFreeBytes+size > maxFreeExtentBytes || c.spareBytesLocked()+size > c.cfg.budget/spareBudgetShare {
		return
	}
	c.extFree = append(c.extFree, b)
	c.extFreeBytes += size
}

// dirtyCovers reports whether [a, b) is fully covered by buffered extents.
func (f *fdCache) dirtyCovers(a, b int64) bool {
	for _, ext := range f.dirty {
		if a >= b {
			break
		}
		if end := ext.end(); end > a {
			if ext.off > a {
				return false
			}
			a = end
		}
	}
	return a >= b
}

// addDirtyLocked buffers one write, merging it with every extent it
// overlaps or touches; the new bytes win. A write within one extent's
// buffer, or extending it within its capacity, lands in place; otherwise
// the merged extent takes a recycled buffer at least twice the old
// capacity, and the buffers it replaces are recycled. Doubling keeps a
// read-ahead window of page appends within the free list: buffers of 4,
// 8, 16 and 32 KiB, where growing a page at a time would cycle seven
// buffers totalling 112 KiB. Reports whether the write coalesced into
// existing dirty data.
func (c *redirCache) addDirtyLocked(f *fdCache, off int64, data []byte) bool {
	end := off + int64(len(data))
	// The extents [i, j) overlap or touch [off, end); sorted and disjoint,
	// together with the write they cover [lo, hi) without a gap.
	i := 0
	for i < len(f.dirty) && f.dirty[i].end() < off {
		i++
	}
	j := i
	for j < len(f.dirty) && f.dirty[j].off <= end {
		j++
	}
	run := f.dirty[i:j]
	lo, hi := off, end
	if len(run) > 0 {
		lo, hi = min(lo, run[0].off), max(hi, run[len(run)-1].end())
	}
	n := int(hi - lo)
	var buf []byte
	if len(run) > 0 && run[0].off == lo && cap(run[0].data) >= n {
		buf = run[0].data[:n]
		f.dirtyBytes -= len(run[0].data)
		run = run[1:]
	} else {
		if len(run) > 0 {
			n = max(n, 2*cap(run[0].data))
		}
		buf = c.takeExtentLocked(n)[:hi-lo]
	}
	for _, old := range run {
		copy(buf[old.off-lo:], old.data)
		f.dirtyBytes -= len(old.data)
		c.putExtentLocked(old.data)
	}
	copy(buf[off-lo:], data)
	f.dirtyBytes += len(buf)

	ext := wext{off: lo, data: buf}
	if i == j {
		f.dirty = slices.Insert(f.dirty, i, ext)
		return false
	}
	f.dirty[i] = ext
	f.dirty = slices.Delete(f.dirty, i+1, j)
	return true
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
func (l *Layer) cachedFDCall(st *layerState, t *kernel.Task, d hostFD, args *kernel.Args) (kernel.Result, bool) {
	// Pages are shared by the whole file: a descriptor that may not read
	// (or write) them gets the guest's answer (EBADF) instead, and so does
	// a write reaching past the file size limit (EFBIG or a short write).
	switch {
	case !d.Regular:
	case args.Nr == abi.SysPread64 && d.Flags.Readable():
		l.policy.cacheServed.Add(1)
		return l.cachedPread(st, t, d, args)
	case args.Nr == abi.SysPwrite64 && d.Flags.Writable() && args.Off <= vfs.MaxFileSize-int64(len(args.Buf)):
		l.policy.cacheServed.Add(1)
		return l.cachedPwrite(st, t, d, args)
	}
	// Coherence rule: every call not served above sees the guest's view,
	// so any buffered data for this file is written back first. No entry
	// is created here — sockets and such never get one.
	if res, failed := l.flushFDFor(st, t, d.key); failed {
		return res, true
	}
	return kernel.Result{}, false
}

// cachedPread serves a positioned read from host memory, fetching on a
// miss — with read-ahead when the read is sequential.
func (l *Layer) cachedPread(st *layerState, t *kernel.Task, d hostFD, args *kernel.Args) (kernel.Result, bool) {
	n := len(args.Buf)
	if n == 0 || args.Off < 0 {
		return kernel.Result{}, false
	}
	c := l.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	fc := c.fdLocked(d, t)
	if fc == nil {
		return kernel.Result{}, false
	}
	// Coherence with the zero-copy path: a read overlapping an in-flight
	// granted write to the same file must never be served from cached
	// (pre-write) pages. Bypass the cache and forward — the transport's
	// submission order puts the read behind the write.
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
func (l *Layer) cachedPwrite(st *layerState, t *kernel.Task, d hostFD, args *kernel.Args) (kernel.Result, bool) {
	n := len(args.Buf)
	if n == 0 || args.Off < 0 {
		return kernel.Result{}, false
	}
	c := l.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	fc := c.fdLocked(d, t)
	if fc == nil {
		return kernel.Result{}, false
	}
	// Writes land in the guest in call order: another descriptor's older
	// buffered data goes first.
	l.flushOthersLocked(st, fc.file, fc)

	if len(fc.dirty) == 0 {
		fc.dirtySince = l.clock.Now()
	}
	if c.addDirtyLocked(fc, args.Off, args.Buf) {
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
			eff = max(eff, fc.dirty[n-1].end())
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
		cp, ok := f.pages[idx]
		if !ok {
			clear(out[a-off : b-off])
			continue
		}
		pStart := idx * cachePageSize
		copy(out[a-off:b-off], cp.data[a-pStart:b-pStart])
		c.lru.moveToFront(cp)
	}
	for _, ext := range fc.dirty {
		a, b := max(ext.off, off), min(ext.end(), end)
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
	res := l.forward(st, t, armArgs, &kernel.Args{Nr: abi.SysFstat, FD: fc.guestFD})
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
	res := l.forward(st, t, armArgs, &kernel.Args{Nr: abi.SysPread64, FD: fc.guestFD, Buf: c.fetchBuf[:size], Off: fetchOff})
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
// src, zero-padded. A resident entry is refilled in place; a new page
// takes a spare entry, else a fresh one within the budget, else the LRU
// victim's entry, buffer and all.
func (c *redirCache) storePageLocked(f *fileCache, idx int64, src []byte) {
	if cp, ok := f.pages[idx]; ok {
		fillPage(cp.data, src)
		c.lru.moveToFront(cp)
		return
	}
	var cp *cachedPage
	switch n := len(c.spare); {
	case n > 0:
		cp = c.spare[n-1]
		c.spare[n-1] = nil
		c.spare = c.spare[:n-1]
	case c.bytes+cachePageSize <= c.cfg.budget:
		cp = &cachedPage{data: make([]byte, cachePageSize)}
	default:
		if cp = c.lru.back(); cp == nil {
			return // a budget below one page caches nothing
		}
		c.lru.remove(cp)
		delete(cp.owner.pages, cp.idx)
		c.bytes -= cachePageSize
	}
	cp.owner, cp.idx = f, idx
	fillPage(cp.data, src)
	f.pages[idx] = cp
	c.lru.pushFront(cp)
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
// folds the data into the file's clean pages and recycles the extents'
// buffers: the forward encodes the arguments into its frame, so nothing
// points at them once it returns. failed=true carries the first
// write-back error.
func (l *Layer) flushLocked(st *layerState, t *kernel.Task, fc *fdCache) (res kernel.Result, failed bool) {
	c := l.cache
	if len(fc.dirty) == 0 {
		return kernel.Result{}, false
	}
	extents := fc.dirty
	// The buffer empties regardless of outcome: like kernel writeback, a
	// failed flush surfaces its error once and does not retry forever.
	fc.dirty = extents[:0]
	fc.dirtyBytes, fc.dirtySince = 0, 0
	defer c.recycleExtentsLocked(extents)

	c.flushArgs = slices.Grow(c.flushArgs[:0], len(extents))[:len(extents)]
	c.flushCalls = c.flushCalls[:0]
	for i, ext := range extents {
		c.flushArgs[i] = kernel.Args{Nr: abi.SysPwrite64, FD: fc.guestFD, Buf: ext.data, Off: ext.off}
		c.flushCalls = append(c.flushCalls, &c.flushArgs[i])
	}
	defer clear(c.flushArgs)
	var results []kernel.Result
	if len(extents) == 1 {
		results = append(c.flushRes[:0], l.forward(st, t, armArgs, c.flushCalls[0]))
	} else {
		var err error
		if results, err = l.forwardBatch(st, t, c.flushCalls, c.flushRes); err != nil {
			return kernel.Result{Ret: -1, Err: err}, true
		}
	}
	c.flushRes = results
	defer clear(results)
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
		if end := extents[i].end(); f.sizeValid && end > f.size {
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
	end := ext.end()
	for idx := ext.off / cachePageSize; idx <= (end-1)/cachePageSize; idx++ {
		pStart := idx * cachePageSize
		a, b := spanWithin(idx, ext.off, end)
		if a == pStart && b == pStart+cachePageSize {
			c.storePageLocked(f, idx, ext.data[a-ext.off:])
			continue
		}
		if cp, ok := f.pages[idx]; ok {
			copy(cp.data[a-pStart:b-pStart], ext.data[a-ext.off:b-ext.off])
			c.lru.moveToFront(cp)
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
func (l *Layer) flushFDFor(st *layerState, t *kernel.Task, k fdKey) (kernel.Result, bool) {
	c := l.cache
	if c == nil {
		return kernel.Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fc, ok := c.fds[k]
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
// behind host descriptor k and the file at guest path p, before a fused
// chain uses them.
func (l *Layer) flushFile(st *layerState, k fdKey, p string) {
	c := l.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc, ok := c.fds[k]; ok {
		l.flushOthersLocked(st, fc.file, nil)
	}
	l.flushOthersLocked(st, c.files[p], nil)
}

// noteForwardedFDOp drops the file's pages after a forwarded call that
// can change it under the cache (Pwrite64 lands here only when the policy
// routed it around the cache).
func (l *Layer) noteForwardedFDOp(k fdKey, nr abi.SyscallNr) {
	switch nr {
	case abi.SysWrite, abi.SysFtruncate, abi.SysPwrite64, abi.SysWritev, abi.SysPwritev:
		l.noteFileWrite(l.fileOf(k))
	}
}

// fileOf returns the file host descriptor k is bound to, or nil (no
// cache, or a descriptor the cache never saw or has forgotten).
func (l *Layer) fileOf(k fdKey) *fileCache {
	c := l.cache
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc, ok := c.fds[k]; ok {
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
	res.Data = keptReply(args.Nr, res.Data)
	return res, hit
}

// keptReply returns the bytes of an idempotent path call's reply for the
// attribute cache to keep or hand out: a stat's kind tag (which the
// landing checked) as vfs's shared read-only view, any other reply's as
// a copy.
func keptReply(nr abi.SyscallNr, data []byte) []byte {
	if nr == abi.SysStat && len(data) == 1 {
		return vfs.LetterView(data[0])
	}
	return bytes.Clone(data)
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
		res.Data = keptReply(args.Nr, res.Data)
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
			c.discardDirtyLocked(fc)
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
