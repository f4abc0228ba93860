package anception

import (
	"container/list"
	"path"
	"sort"
	"sync"
	"time"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/sim"
)

// This file implements the host-side redirection cache (DESIGN.md §9): a
// per-remote-descriptor page cache with read-ahead, a write-coalescing
// buffer, and a path-attribute cache for idempotent calls. Cache-hit
// redirected calls are served from host memory at host-call cost and never
// touch the transport; misses amortize the container round-trip across
// read-ahead pages; buffered writes merge adjacent dirty ranges so k
// sequential page writes flush in ~k/N round-trips.
//
// Coherence rules:
//   - write-through-visible: a read on the same descriptor always sees
//     buffered (unflushed) write data overlaid on cached pages;
//   - any non-pread/pwrite call on a descriptor with pending dirty data
//     flushes it first, so the guest stays authoritative for everything
//     the cache does not model (offsets, metadata, truncation);
//   - entries are tagged with the CVM boot generation and the whole cache
//     is invalidated on ReplaceGuest, so a stale page can never be served
//     across a container restart;
//   - degraded (circuit-breaker) mode bypasses the cache entirely — the
//     layer checks the state snapshot before consulting it;
//   - clean pages live under an LRU byte budget; dirty data is bounded by
//     the flush threshold (read-ahead window) and the flush deadline.
//
// Page buffers are recycled: pages dropped by invalidation become spares
// (up to an eighth of the budget), a new page takes a spare (or, at the
// budget, the LRU victim in place), and resident plus spare pages never
// exceed the budget.

// Cache tuning.
const (
	// DefaultReadAheadPages is the number of pages fetched per read miss
	// in one chunked round-trip.
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
	// Hits counts calls served entirely from host memory (page reads,
	// buffered writes, attribute hits) with no container round-trip.
	Hits int
	// Misses counts cache consultations that needed the container.
	Misses int
	// ReadAheadPages counts pages fetched beyond the first on read misses.
	ReadAheadPages int
	// CoalescedWrites counts buffered writes merged into an existing
	// dirty range instead of starting a new one.
	CoalescedWrites int
	// Flushes counts write-back round-trips (each may carry many ranges).
	Flushes int
	// Invalidations counts whole-cache wipes (CVM restart) plus targeted
	// per-path/per-descriptor purges.
	Invalidations int
}

// redirCacheConfig is the cache tuning. Boot always sets the defaults
// above; tests shrink it to reach the eviction and write-back edges.
type redirCacheConfig struct {
	readAhead  int
	budget     int64
	flushDelay time.Duration
}

// redirCache is the cache state. One mutex guards everything including the
// forwards issued for fetch and flush: fetch/flush round-trips only touch
// the proxy/transport stack, which never re-enters the cache, so holding
// the lock across them is deadlock-free and keeps read-after-write
// coherence windows closed.
type redirCache struct {
	cfg redirCacheConfig

	mu  sync.Mutex
	gen int
	// bytes counts resident clean pages; spare holds the buffers of
	// dropped pages for reuse. Together they stay within the budget.
	bytes int64
	spare [][]byte
	// lru orders clean cached pages, most recently used at the front.
	lru   *list.List
	fds   map[*kernel.FDEntry]*fdCache
	attrs map[attrKey]attrEntry
	stats CacheStats
	// fetchBuf is the landing buffer of read-ahead fetches.
	fetchBuf []byte
}

// fdCache is the per-remote-descriptor state.
type fdCache struct {
	guestFD int
	path    string
	// owner is the last host task that touched this descriptor through
	// the cache. Forwarded flushes must ride the owner's guest proxy —
	// the guest fd number only resolves in that proxy's table — so a
	// layer-wide flush (migration, explicit sync) writes each
	// descriptor back through its own task rather than the caller's.
	owner *kernel.Task
	// pages maps page index -> *list.Element whose value is *cachedPage.
	pages map[int64]*list.Element
	// dirty holds buffered write extents, sorted by offset, disjoint.
	dirty      []wext
	dirtyBytes int
	dirtySince time.Duration
	// size is the guest-side file size; valid only when sizeValid. It is
	// re-learned (fstat) after any forwarded call that may change it.
	size      int64
	sizeValid bool
}

type cachedPage struct {
	owner *fdCache
	idx   int64
	gen   int
	// data is always a full page, zero-padded past end-of-file.
	data []byte
}

// wext is one buffered write extent.
type wext struct {
	off  int64
	data []byte
}

type attrKey struct {
	nr   abi.SyscallNr
	path string
	// aux disambiguates calls with a scalar argument (access mode).
	aux int
}

type attrEntry struct {
	gen int
	res kernel.Result
}

func newRedirCache(gen int) *redirCache {
	return &redirCache{
		cfg: redirCacheConfig{
			readAhead:  DefaultReadAheadPages,
			budget:     DefaultCacheBudgetBytes,
			flushDelay: DefaultCacheFlushDelay,
		},
		gen:   gen,
		lru:   list.New(),
		fds:   make(map[*kernel.FDEntry]*fdCache),
		attrs: make(map[attrKey]attrEntry),
	}
}

// snapshot returns a copy of the counters.
func (c *redirCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// invalidateAll wipes every entry and advances to the given boot
// generation. Buffered writes are discarded: a container restart loses
// unflushed data exactly like an OS crash loses its page cache.
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
	c.gen = gen
	for el := c.lru.Front(); el != nil; el = c.lru.Front() {
		c.retireLocked(el)
	}
	c.fds = make(map[*kernel.FDEntry]*fdCache)
	c.attrs = make(map[attrKey]attrEntry)
	c.stats.Invalidations++
	c.mu.Unlock()
	if l.trace != nil {
		l.trace.Record(sim.EvCache, "redirection cache invalidated (generation %d, %d entries dropped)", gen, dropped)
	}
}

// rekeyRedirCache is invalidateRedirCache's generation-aware sibling for
// snapshot restores. The cache mirrors the host-persistent filesystem the
// guest serves — state a restore does NOT rewind — so clean pages and
// attribute entries stay correct and are re-tagged to the new boot
// generation instead of dropped; the fdCache map is keyed by host
// *kernel.FDEntry, which survives the swap, and a stale fc.guestFD
// surfaces EBADF on next forwarded use exactly like after a cold restart.
// Buffered dirty extents were never written to the guest and die with it
// (crash semantics), taking the descriptor's size knowledge with them.
// Returns (pagesKept, attrsKept, dirtyDropped).
func (l *Layer) rekeyRedirCache(gen int) (pagesKept, attrsKept, dirtyDropped int) {
	c := l.cache
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	oldGen := c.gen
	c.gen = gen
	for _, fc := range c.fds {
		if len(fc.dirty) > 0 {
			dirtyDropped += len(fc.dirty)
			fc.dirty = nil
			fc.dirtyBytes = 0
			fc.dirtySince = 0
			fc.sizeValid = false
		}
		for idx, el := range fc.pages {
			cp := el.Value.(*cachedPage)
			if cp.gen == oldGen {
				cp.gen = gen
				pagesKept++
				continue
			}
			c.retireLocked(el)
			delete(fc.pages, idx)
		}
	}
	for k, ent := range c.attrs {
		if ent.gen == oldGen {
			ent.gen = gen
			c.attrs[k] = ent
			attrsKept++
			continue
		}
		delete(c.attrs, k)
	}
	c.stats.Invalidations++
	c.mu.Unlock()
	if l.trace != nil {
		l.trace.Record(sim.EvCache,
			"redirection cache rekeyed to generation %d: %d pages and %d attrs kept, %d dirty extents dropped",
			gen, pagesKept, attrsKept, dirtyDropped)
	}
	return pagesKept, attrsKept, dirtyDropped
}

// fdLocked returns (creating if needed) the per-descriptor state,
// refreshing the owning task.
func (c *redirCache) fdLocked(e *kernel.FDEntry, t *kernel.Task) *fdCache {
	if fc, ok := c.fds[e]; ok {
		fc.owner = t
		return fc
	}
	fc := &fdCache{
		guestFD: e.GuestFD,
		path:    e.Path,
		owner:   t,
		pages:   make(map[int64]*list.Element),
	}
	c.fds[e] = fc
	return fc
}

// dropFDLocked removes a descriptor's clean pages and forgets it. Dirty
// data must have been flushed (or deliberately discarded) by the caller.
func (c *redirCache) dropFDLocked(e *kernel.FDEntry) {
	fc, ok := c.fds[e]
	if !ok {
		return
	}
	for _, el := range fc.pages {
		c.retireLocked(el)
	}
	delete(c.fds, e)
}

// dropPagesLocked discards a descriptor's clean pages and size knowledge,
// after a forwarded call that may have changed the file under the cache.
func (c *redirCache) dropPagesLocked(fc *fdCache) {
	for idx, el := range fc.pages {
		c.retireLocked(el)
		delete(fc.pages, idx)
	}
	fc.sizeValid = false
}

// retireLocked unlinks a resident page and keeps its buffer as a spare,
// up to spareBudgetShare of the budget: enough to refill the fetches
// that follow an invalidation, while the rest go to the GC so a large
// purge cannot pin memory the resident set no longer uses. The caller
// removes the page from its descriptor's page map.
func (c *redirCache) retireLocked(el *list.Element) {
	cp := c.lru.Remove(el).(*cachedPage)
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

// --- dirty-extent bookkeeping -------------------------------------------

func (f *fdCache) maxDirtyEnd() int64 {
	if len(f.dirty) == 0 {
		return 0
	}
	last := f.dirty[len(f.dirty)-1]
	return last.off + int64(len(last.data))
}

// dirtyCovers reports whether [a, b) is fully covered by buffered extents.
func (f *fdCache) dirtyCovers(a, b int64) bool {
	if a >= b {
		return true
	}
	cur := a
	for _, ext := range f.dirty {
		end := ext.off + int64(len(ext.data))
		if end <= cur {
			continue
		}
		if ext.off > cur {
			return false
		}
		cur = end
		if cur >= b {
			return true
		}
	}
	return cur >= b
}

// addDirty buffers one write, merging it with any overlapping or adjacent
// extents. Reports whether it coalesced into existing dirty data.
func (f *fdCache) addDirty(off int64, data []byte) bool {
	buf := make([]byte, len(data))
	copy(buf, data)
	ext := wext{off: off, data: buf}
	end := off + int64(len(buf))

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
		lo := ext.off
		if old.off < lo {
			lo = old.off
		}
		hi := end
		if oldEnd > hi {
			hi = oldEnd
		}
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
	c := l.cache
	switch args.Nr {
	case abi.SysPread64:
		l.policy.cacheServed.Add(1)
		return l.cachedPread(st, t, e, args)
	case abi.SysPwrite64:
		l.policy.cacheServed.Add(1)
		return l.cachedPwrite(st, t, e, args)
	}
	// Coherence rule: every call not served above sees the guest's view,
	// so any buffered data for this descriptor is written back first. No
	// entry is created here — sockets and such never get one.
	c.mu.Lock()
	var res kernel.Result
	var failed bool
	if fc, ok := c.fds[e]; ok {
		res, failed = l.flushLocked(st, t, fc)
	}
	c.mu.Unlock()
	if failed && !res.Ok() {
		return res, true
	}
	return kernel.Result{}, false
}

// cachedPread serves a positioned read from host memory, fetching with
// read-ahead on a miss.
func (l *Layer) cachedPread(st *layerState, t *kernel.Task, e *kernel.FDEntry, args *kernel.Args) (kernel.Result, bool) {
	n := len(args.Buf)
	if n == 0 || args.Off < 0 {
		return kernel.Result{}, false
	}
	// Coherence with the zero-copy path: a read overlapping an in-flight
	// granted write must never be served from cached (pre-write) pages.
	// Bypass the cache and forward — per-descriptor FIFO ordering on the
	// transport puts the read behind the write.
	if l.grants != nil && l.grants.overlapsLiveWrite(e.GuestFD, args.Off, int64(n)) {
		l.counters.grantCacheBypass.Add(1)
		return kernel.Result{}, false
	}
	c := l.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	fc := c.fdLocked(e, t)
	l.maybeFlushByDeadlineLocked(st, t, fc)

	if got, ok := fc.composeLocked(c, args.Off, args.Buf); ok {
		c.stats.Hits++
		pages := pagesSpanned(args.Off, got)
		l.clock.Charge(t.Lane, l.model.CacheLookup+time.Duration(pages)*l.model.CacheHitPerPage)
		return kernel.Result{Ret: int64(got), Data: args.Buf[:got]}, true
	}
	c.stats.Misses++
	l.clock.Charge(t.Lane, l.model.CacheLookup)

	// Make the guest authoritative (flush), learn the size if needed,
	// then fetch the span plus read-ahead in one chunked round-trip.
	if res, flushed := l.flushLocked(st, t, fc); flushed && !res.Ok() {
		return res, true
	}
	if !fc.sizeValid {
		if _, ok := l.learnSizeLocked(st, t, fc); !ok {
			// fstat failed (not a regular file, or the container went
			// away mid-call): let the uncached path report the real
			// errno for the original pread.
			return kernel.Result{}, false
		}
	}
	if res, ok := l.fetchLocked(st, t, fc, args.Off, n); !ok {
		return res, true
	}
	if got, ok := fc.composeLocked(c, args.Off, args.Buf); ok {
		pages := pagesSpanned(args.Off, got)
		l.clock.Charge(t.Lane, time.Duration(pages)*l.model.CacheHitPerPage)
		return kernel.Result{Ret: int64(got), Data: args.Buf[:got]}, true
	}
	// Should not happen after a successful fetch; fall back to the
	// uncached path rather than guessing.
	return kernel.Result{}, false
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
	c.purgeAttrLocked(fc.path)

	// Flush when the buffer reaches the read-ahead window (k sequential
	// page writes -> ~k/N round-trips) or its deadline passed.
	if int64(fc.dirtyBytes) >= int64(c.cfg.readAhead)*cachePageSize {
		if res, flushed := l.flushLocked(st, t, fc); flushed && !res.Ok() {
			return res, true
		}
	} else {
		l.maybeFlushByDeadlineLocked(st, t, fc)
	}
	return kernel.Result{Ret: int64(n)}, true
}

// composeLocked assembles [off, off+len(dst)) from clean pages overlaid
// with dirty extents straight into dst, returning how many bytes it
// filled (fewer at end of file). ok=false means the range is not fully
// resident, and dst is untouched.
func (f *fdCache) composeLocked(c *redirCache, off int64, dst []byte) (int, bool) {
	end := off + int64(len(dst))
	dirtyEnd := f.maxDirtyEnd()
	if !f.sizeValid {
		// Size unknown: only a fully dirty-covered range is servable
		// (its content is independent of what lies beneath).
		if !f.dirtyCovers(off, end) {
			return 0, false
		}
	} else {
		eff := f.size
		if dirtyEnd > eff {
			eff = dirtyEnd
		}
		if off >= eff {
			return 0, true // read at or past EOF
		}
		if end > eff {
			end = eff
		}
		for idx := off / cachePageSize; idx <= (end-1)/cachePageSize; idx++ {
			a, b := spanWithin(idx, off, end)
			if el, ok := f.pages[idx]; ok && el.Value.(*cachedPage).gen == c.gen {
				continue
			}
			// Bytes at/past the guest file size are holes (zeros) unless
			// dirty; bytes below it must be buffered to be served.
			needed := b
			if needed > f.size {
				needed = f.size
			}
			if !f.dirtyCovers(a, needed) {
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
		if !ok || el.Value.(*cachedPage).gen != c.gen {
			clear(out[a-off : b-off])
			continue
		}
		pStart := idx * cachePageSize
		copy(out[a-off:b-off], el.Value.(*cachedPage).data[a-pStart:b-pStart])
		c.lru.MoveToFront(el)
	}
	for _, ext := range f.dirty {
		a, b := ext.off, ext.off+int64(len(ext.data))
		if a < off {
			a = off
		}
		if b > end {
			b = end
		}
		if a < b {
			copy(out[a-off:b-off], ext.data[a-ext.off:b-ext.off])
		}
	}
	return len(out), true
}

// spanWithin clips [off, end) to page idx.
func spanWithin(idx, off, end int64) (int64, int64) {
	a := idx * cachePageSize
	b := a + cachePageSize
	if a < off {
		a = off
	}
	if b > end {
		b = end
	}
	return a, b
}

// learnSizeLocked fstats the guest descriptor to establish the exact file
// size. ok=false carries the error result.
func (l *Layer) learnSizeLocked(st *layerState, t *kernel.Task, fc *fdCache) (kernel.Result, bool) {
	res := l.forwardOn(st, t, &kernel.Args{Nr: abi.SysFstat, FD: fc.guestFD})
	if !res.Ok() {
		return res, false
	}
	fc.size = res.Ret
	fc.sizeValid = true
	return res, true
}

// fetchLocked pulls the pages covering [off, off+n) — widened to the
// read-ahead window — from the container in one chunked round-trip.
func (l *Layer) fetchLocked(st *layerState, t *kernel.Task, fc *fdCache, off int64, n int) (kernel.Result, bool) {
	c := l.cache
	first := off / cachePageSize
	want := int64(pagesSpanned(off, n))
	if want < int64(c.cfg.readAhead) {
		want = int64(c.cfg.readAhead)
	}
	fetchOff := first * cachePageSize
	size := want * cachePageSize
	// Never read past the known end of file.
	if fc.sizeValid && fetchOff+size > fc.size {
		size = fc.size - fetchOff
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
		fc.size = fetchOff + int64(len(got))
		fc.sizeValid = true
	}
	for pOff := int64(0); pOff < int64(len(got)); pOff += cachePageSize {
		c.storePageLocked(fc, (fetchOff+pOff)/cachePageSize, got[pOff:])
	}
	fetched := pagesSpanned(fetchOff, len(got))
	if extra := fetched - pagesSpanned(off, n); extra > 0 {
		c.stats.ReadAheadPages += extra
	}
	if l.trace != nil {
		l.trace.Record(sim.EvCache, "read-ahead: fetched %d pages of guest fd %d at offset %d", fetched, fc.guestFD, fetchOff)
	}
	return res, true
}

// storePageLocked installs a clean copy of one page: the first page of
// src, zero-padded past its end. An entry already resident is refilled in
// place. A new one takes a spare buffer, else fresh memory while resident
// and spare pages fit the budget; at the budget it takes over the LRU
// victim in place (element, entry and buffer), which evicts exactly the
// page a push-then-evict would.
func (c *redirCache) storePageLocked(fc *fdCache, idx int64, src []byte) {
	if el, ok := fc.pages[idx]; ok {
		cp := el.Value.(*cachedPage)
		fillPage(cp.data, src)
		cp.gen = c.gen
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
		vp.owner, vp.idx, vp.gen = fc, idx, c.gen
		fillPage(vp.data, src)
		fc.pages[idx] = victim
		c.lru.MoveToFront(victim)
		return
	}
	fillPage(data, src)
	fc.pages[idx] = c.lru.PushFront(&cachedPage{owner: fc, idx: idx, gen: c.gen, data: data})
	c.bytes += cachePageSize
}

// fillPage copies src into a page buffer and zeroes the rest.
func fillPage(page, src []byte) {
	clear(page[copy(page, src):])
}

// maybeFlushByDeadlineLocked flushes a descriptor whose oldest buffered
// write has exceeded the flush deadline.
func (l *Layer) maybeFlushByDeadlineLocked(st *layerState, t *kernel.Task, fc *fdCache) {
	if len(fc.dirty) == 0 {
		return
	}
	if l.clock.Now()-fc.dirtySince < l.cache.cfg.flushDelay {
		return
	}
	l.flushLocked(st, t, fc)
}

// flushLocked writes every buffered extent back to the container —
// batched into a single round-trip when there is more than one — then
// folds the data into the clean page cache. flushed=false means there was
// nothing to do.
func (l *Layer) flushLocked(st *layerState, t *kernel.Task, fc *fdCache) (kernel.Result, bool) {
	c := l.cache
	if len(fc.dirty) == 0 {
		return kernel.Result{}, false
	}
	extents := fc.dirty
	// The buffer empties regardless of outcome: like kernel writeback, a
	// failed flush surfaces its error once and does not retry forever.
	fc.dirty = nil
	fc.dirtyBytes = 0
	fc.dirtySince = 0

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
	// Fold each extent that DID land into the clean page cache (full
	// pages installed, partial edges patching resident pages) even when a
	// later call in the batch failed: the container applied those writes,
	// so dropping them here would let subsequent cached reads serve stale
	// pre-flush data. The first failure is still reported to the caller.
	var failRes kernel.Result
	failed := false
	for i, res := range results {
		if !res.Ok() {
			if !failed {
				failRes, failed = res, true
			}
			continue
		}
		end := extents[i].off + int64(len(extents[i].data))
		if fc.sizeValid && end > fc.size {
			fc.size = end
		}
		l.foldExtentLocked(fc, extents[i])
	}
	c.purgeAttrLocked(fc.path)
	if l.trace != nil {
		l.trace.Record(sim.EvCache, "flush: wrote %d coalesced extents (%d bytes) to guest fd %d",
			len(extents), extentBytes(extents), fc.guestFD)
	}
	if failed {
		return failRes, true
	}
	return kernel.Result{}, false
}

// foldExtentLocked merges one flushed extent into the clean page cache.
func (l *Layer) foldExtentLocked(fc *fdCache, ext wext) {
	c := l.cache
	end := ext.off + int64(len(ext.data))
	for idx := ext.off / cachePageSize; idx <= (end-1)/cachePageSize; idx++ {
		pStart := idx * cachePageSize
		a, b := spanWithin(idx, ext.off, end)
		if a == pStart && b == pStart+cachePageSize {
			c.storePageLocked(fc, idx, ext.data[a-ext.off:])
			continue
		}
		if el, ok := fc.pages[idx]; ok {
			cp := el.Value.(*cachedPage)
			copy(cp.data[a-pStart:b-pStart], ext.data[a-ext.off:b-ext.off])
			cp.gen = c.gen
			c.lru.MoveToFront(el)
		}
	}
}

func extentBytes(extents []wext) int {
	n := 0
	for _, e := range extents {
		n += len(e.data)
	}
	return n
}

// flushFDFor writes back buffered data for one descriptor (close, dup,
// fsync and explicit-sync paths). Returns the flush error result, if any.
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
	res, flushed := l.flushLocked(st, t, fc)
	if flushed && !res.Ok() {
		return res, true
	}
	return kernel.Result{}, false
}

// forgetFD drops all cache state for a closed descriptor.
func (l *Layer) forgetFD(e *kernel.FDEntry) {
	c := l.cache
	if c == nil {
		return
	}
	c.mu.Lock()
	c.dropFDLocked(e)
	c.mu.Unlock()
}

// noteForwardedFDOp records that an uncached call was forwarded on a
// cached descriptor; calls that can change file content or size under the
// cache drop its clean pages.
func (l *Layer) noteForwardedFDOp(e *kernel.FDEntry, nr abi.SyscallNr) {
	c := l.cache
	if c == nil {
		return
	}
	switch nr {
	case abi.SysWrite, abi.SysFtruncate, abi.SysPwrite64, abi.SysWritev, abi.SysPwritev:
		// Pwrite64 lands here only when the policy routed it around the
		// cache; the vectored writes always forward. Either way the file
		// changed beneath any clean pages.
		c.mu.Lock()
		if fc, ok := c.fds[e]; ok {
			c.dropPagesLocked(fc)
			c.purgeAttrLocked(fc.path)
			c.stats.Invalidations++
		}
		c.mu.Unlock()
	}
}

// noteGuestFDWrite invalidates clean pages of every descriptor bound to a
// guest fd that was written outside the cache (msync write-back).
func (l *Layer) noteGuestFDWrite(guestFD int) {
	c := l.cache
	if c == nil {
		return
	}
	c.mu.Lock()
	for _, fc := range c.fds {
		if fc.guestFD == guestFD {
			c.dropPagesLocked(fc)
			c.stats.Invalidations++
		}
	}
	c.mu.Unlock()
}

// --- path-attribute cache ------------------------------------------------

// attrCacheable reports idempotent redirect-class path calls.
func attrCacheable(nr abi.SyscallNr) bool {
	switch nr {
	case abi.SysStat, abi.SysAccess, abi.SysReadlink, abi.SysGetdents:
		return true
	default:
		return false
	}
}

// attrMutates reports path calls that must purge attribute entries (and
// flush/invalidate page caches of the affected path).
func attrMutates(nr abi.SyscallNr) bool {
	switch nr {
	case abi.SysMkdir, abi.SysMkdirat, abi.SysRmdir, abi.SysUnlink,
		abi.SysChmod, abi.SysChown, abi.SysTruncate, abi.SysMknod,
		abi.SysRename, abi.SysLink, abi.SysSymlink:
		return true
	default:
		return false
	}
}

// cachedPathCall serves idempotent path calls from the attribute cache and
// keeps it coherent around mutating ones. handled=false means the caller
// must forward; it then reports the outcome via notePathResult.
func (l *Layer) cachedPathCall(st *layerState, t *kernel.Task, args *kernel.Args, p string) (kernel.Result, bool) {
	c := l.cache
	if !attrCacheable(args.Nr) {
		if attrMutates(args.Nr) {
			// Content-changing path ops write back any buffered data for
			// descriptors open on this path before the guest acts on it.
			c.mu.Lock()
			for _, fc := range c.fds {
				if fc.path == p || (args.Path2 != "" && fc.path == args.Path2) {
					l.flushLocked(st, t, fc)
					c.dropPagesLocked(fc)
				}
			}
			c.mu.Unlock()
		}
		return kernel.Result{}, false
	}
	key := attrKey{nr: args.Nr, path: p, aux: args.Size}
	c.mu.Lock()
	// Buffered writes on descriptors open on this path change what stat
	// (and friends) report: write them back before answering from either
	// the attribute cache or the guest. Flushing purges this path's
	// attribute entries, so a stale size can never be served below.
	for _, fc := range c.fds {
		if fc.path == p && len(fc.dirty) > 0 {
			l.flushLocked(st, t, fc)
		}
	}
	ent, ok := c.attrs[key]
	if ok && ent.gen == c.gen {
		c.stats.Hits++
		c.mu.Unlock()
		l.clock.Charge(t.Lane, l.model.CacheLookup)
		res := ent.res
		if len(res.Data) > 0 {
			res.Data = append([]byte(nil), res.Data...)
		}
		return res, true
	}
	c.stats.Misses++
	c.mu.Unlock()
	l.clock.Charge(t.Lane, l.model.CacheLookup)
	return kernel.Result{}, false
}

// notePathResult caches a successful idempotent result or purges entries
// invalidated by a mutating path call.
func (l *Layer) notePathResult(args *kernel.Args, p string, res kernel.Result) {
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
			c.attrs = make(map[attrKey]attrEntry)
		}
		stored := res
		if len(stored.Data) > 0 {
			stored.Data = append([]byte(nil), stored.Data...)
		}
		c.attrs[attrKey{nr: args.Nr, path: p, aux: args.Size}] = attrEntry{gen: c.gen, res: stored}
		c.mu.Unlock()
		return
	}
	if attrMutates(args.Nr) {
		c.mu.Lock()
		c.purgeAttrLocked(p)
		if args.Path2 != "" {
			c.purgeAttrLocked(args.Path2)
		}
		c.stats.Invalidations++
		c.mu.Unlock()
	}
}

// noteRemoteOpen keeps the cache coherent after a forwarded open: O_CREAT
// changes the parent listing and stat results; O_TRUNC discards the file
// content, so clean pages — and buffered writes, which the truncate
// happens-after — of every descriptor on the path are dropped.
func (l *Layer) noteRemoteOpen(p string, flags abi.OpenFlag) {
	c := l.cache
	if c == nil || flags&(abi.OCreat|abi.OTrunc) == 0 {
		return
	}
	c.mu.Lock()
	c.purgeAttrLocked(p)
	if flags&abi.OTrunc != 0 {
		for _, fc := range c.fds {
			if fc.path == p {
				fc.dirty = nil
				fc.dirtyBytes = 0
				fc.dirtySince = 0
				c.dropPagesLocked(fc)
			}
		}
		c.stats.Invalidations++
	}
	c.mu.Unlock()
}

// pagesSpanned counts the pages the byte range [off, off+n) touches.
func pagesSpanned(off int64, n int) int {
	if n <= 0 {
		return 0
	}
	first := off / cachePageSize
	last := (off + int64(n) - 1) / cachePageSize
	return int(last - first + 1)
}

// FlushRedirCache writes back every buffered extent (tests, explicit
// sync points, and migration's pre-drain write-back). Each descriptor
// flushes through the task that last touched it — its guest fd only
// resolves in that task's proxy — falling back to t for entries with no
// recorded owner. It is a no-op when the cache is off.
func (l *Layer) FlushRedirCache(t *kernel.Task) error {
	c := l.cache
	if c == nil {
		return nil
	}
	st := l.currentState()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, fc := range c.fds {
		owner := fc.owner
		if owner == nil {
			owner = t
		}
		if res, flushed := l.flushLocked(st, owner, fc); flushed && !res.Ok() {
			return res.Err
		}
	}
	return nil
}

// CacheStatsSnapshot returns the cache counters (zero value when the
// cache is off).
func (l *Layer) CacheStatsSnapshot() CacheStats {
	if l.cache == nil {
		return CacheStats{}
	}
	return l.cache.snapshot()
}
