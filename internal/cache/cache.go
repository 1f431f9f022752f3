// Package cache implements the processor-side cache hierarchy of the x86
// baseline: set-associative write-back write-allocate caches with LRU
// replacement, miss-status holding registers (MSHRs) that bound memory
// level parallelism, an inclusive last-level cache with back-invalidation,
// and the Table I prefetchers (stride at L1, stream at L2).
//
// Caches are timing-only: no data is stored. Functional query results are
// computed by the database layer; the caches decide *when* accesses
// complete.
package cache

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// PrefetchKind selects the prefetcher attached to a cache.
type PrefetchKind uint8

const (
	// PrefetchNone disables prefetching.
	PrefetchNone PrefetchKind = iota
	// PrefetchStride is a per-region stride detector (L1 in Table I).
	PrefetchStride
	// PrefetchStream is a sequential stream detector (L2 in Table I).
	PrefetchStream
)

// String implements fmt.Stringer.
func (p PrefetchKind) String() string {
	switch p {
	case PrefetchStride:
		return "stride"
	case PrefetchStream:
		return "stream"
	default:
		return "none"
	}
}

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes uint64
	Ways      uint32
	LineBytes uint32
	Latency   sim.Cycle // lookup/hit latency

	// MSHR pools per Table I: read misses (demand+prefetch), write
	// misses, and evictions (writebacks in flight).
	MSHRRead  int
	MSHRWrite int
	MSHREvict int

	Prefetch PrefetchKind
	// PrefetchDegree is how many lines ahead a trained stream/stride
	// entry fetches.
	PrefetchDegree uint32
}

// Validate rejects impossible cache shapes.
func (c Config) Validate() error {
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.Ways == 0 {
		return fmt.Errorf("cache %s: zero ways", c.Name)
	}
	lines := c.SizeBytes / uint64(c.LineBytes)
	if lines == 0 || lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / uint64(c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	if c.MSHRRead <= 0 {
		return fmt.Errorf("cache %s: MSHRRead must be positive", c.Name)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// prefetched marks a line installed by a prefetch fill that no demand
	// access has touched yet; the first demand hit counts it useful.
	prefetched bool
	lru        uint64
}

type waiter struct {
	markDirty bool
	done      func(now sim.Cycle)
}

// mshr is one miss-status holding register. MSHRs are pooled: a miss
// draws one from the cache's free list and the fill's arrival returns
// it, so steady-state miss handling allocates nothing. The embedded
// fill request's Done callback is pre-bound once, when the mshr is
// first constructed.
type mshr struct {
	c        *Cache
	lineAddr mem.Addr
	waiters  []waiter
	isWrite  bool // allocated from the write pool
	prefetch bool

	fill   mem.Request
	fillFn func(now sim.Cycle) // pre-bound: fill arrived
}

// OnEvent implements sim.Handler: the mshr retries its fill against the
// next level until accepted (tag unused — the mshr has one event kind).
func (m *mshr) OnEvent(now sim.Cycle, _ uint64) {
	if !m.c.next.Access(&m.fill) {
		m.c.engine.AfterEvent(1, m, 0)
	}
}

// wbOp is one pooled in-flight writeback (dirty eviction).
type wbOp struct {
	c      *Cache
	req    mem.Request
	doneFn func(now sim.Cycle) // pre-bound: write drained, release op
}

// OnEvent implements sim.Handler: retry the writeback under
// backpressure.
func (w *wbOp) OnEvent(now sim.Cycle, _ uint64) {
	if !w.c.next.Access(&w.req) {
		w.c.engine.AfterEvent(1, w, 0)
	}
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg    Config
	engine *sim.Engine
	next   mem.Port

	sets     [][]line
	setMask  uint64
	lineMask uint64
	lruClock uint64

	pending    map[mem.Addr]*mshr
	mshrFree   []*mshr
	wbFree     []*wbOp
	readInUse  int
	writeInUse int
	evictInUse int
	// version moves whenever an MSHR frees (see Version).
	version uint64

	pf    prefetcher
	pfBuf []mem.Addr // reused scratch for prefetcher proposals

	children []*Cache // for inclusive back-invalidation

	hits        *stats.Counter
	misses      *stats.Counter
	writeHits   *stats.Counter
	writeMisses *stats.Counter
	evictions   *stats.Counter
	writebacks  *stats.Counter
	prefetches  *stats.Counter
	pfUseful    *stats.Counter
	pfDropped   *stats.Counter
	mshrStalls  *stats.Counter
	coalesced   *stats.Counter
	backInvals  *stats.Counter
}

// New builds a cache level in front of next.
func New(engine *sim.Engine, cfg Config, next mem.Port, reg *stats.Registry) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / uint64(cfg.LineBytes) / uint64(cfg.Ways)
	c := &Cache{
		cfg:      cfg,
		engine:   engine,
		next:     next,
		sets:     make([][]line, nsets),
		setMask:  nsets - 1,
		lineMask: ^uint64(cfg.LineBytes - 1),
		pending:  make(map[mem.Addr]*mshr),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	switch cfg.Prefetch {
	case PrefetchStride:
		c.pf = newStridePrefetcher(cfg.LineBytes, cfg.PrefetchDegree)
	case PrefetchStream:
		c.pf = newStreamPrefetcher(cfg.LineBytes, cfg.PrefetchDegree)
	}
	sc := reg.Scope(cfg.Name)
	c.hits = sc.Counter("read_hits")
	c.misses = sc.Counter("read_misses")
	c.writeHits = sc.Counter("write_hits")
	c.writeMisses = sc.Counter("write_misses")
	c.evictions = sc.Counter("evictions")
	c.writebacks = sc.Counter("writebacks")
	c.prefetches = sc.Counter("prefetches_issued")
	c.pfUseful = sc.Counter("prefetches_useful")
	c.pfDropped = sc.Counter("prefetches_dropped")
	c.mshrStalls = sc.Counter("mshr_stalls")
	c.coalesced = sc.Counter("coalesced_misses")
	c.backInvals = sc.Counter("back_invalidations")
	return c, nil
}

// SetChildren registers the upper-level caches this (inclusive) cache must
// back-invalidate on eviction.
func (c *Cache) SetChildren(children ...*Cache) { c.children = children }

// Reset empties the cache to its post-New state: all lines invalid, LRU
// clock restarted, no outstanding misses, prefetcher untrained. Pooled
// MSHRs and writeback ops keep their capacity; any that were in flight
// are abandoned with the engine's event queue.
func (c *Cache) Reset() {
	for i := range c.sets {
		set := c.sets[i]
		for j := range set {
			set[j] = line{}
		}
	}
	c.lruClock = 0
	for la, m := range c.pending {
		m.waiters = m.waiters[:0]
		c.mshrFree = append(c.mshrFree, m)
		delete(c.pending, la)
	}
	c.readInUse, c.writeInUse, c.evictInUse = 0, 0, 0
	c.version++
	if c.pf != nil {
		c.pf.reset()
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) lineAddr(a mem.Addr) mem.Addr { return mem.Addr(uint64(a) & c.lineMask) }

func (c *Cache) setIndex(la mem.Addr) uint64 {
	return (uint64(la) / uint64(c.cfg.LineBytes)) & c.setMask
}

func (c *Cache) lookup(la mem.Addr) *line {
	set := c.sets[c.setIndex(la)]
	tag := uint64(la)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Access implements mem.Port. A request must not cross a line boundary.
// Returns false when a needed MSHR is unavailable; the caller must retry.
func (c *Cache) Access(req *mem.Request) bool {
	if req.Size == 0 {
		panic(fmt.Sprintf("cache %s: zero-size access", c.cfg.Name))
	}
	la := c.lineAddr(req.Addr)
	if c.lineAddr(req.Addr+mem.Addr(req.Size-1)) != la {
		panic(fmt.Sprintf("cache %s: access %x+%d crosses a line", c.cfg.Name, req.Addr, req.Size))
	}

	if ln := c.lookup(la); ln != nil {
		c.lruClock++
		ln.lru = c.lruClock
		if ln.prefetched {
			// First demand touch of a prefetched line: the prefetch paid.
			ln.prefetched = false
			c.pfUseful.Inc()
		}
		if req.Kind == mem.Write {
			ln.dirty = true
			c.writeHits.Inc()
		} else {
			c.hits.Inc()
		}
		if req.Done != nil {
			c.engine.ScheduleCall(c.engine.Now()+c.cfg.Latency, req.Done)
		}
		c.train(req.Addr, false)
		return true
	}

	// Miss. Coalesce into an existing MSHR if one is outstanding.
	if m, ok := c.pending[la]; ok {
		if m.prefetch {
			// Demand arrived while the prefetch fill was still in flight:
			// the prefetch hid part of the miss latency. Count it useful
			// once and let the fill install a plain demand line.
			m.prefetch = false
			c.pfUseful.Inc()
		}
		m.waiters = append(m.waiters, waiter{markDirty: req.Kind == mem.Write, done: req.Done})
		c.coalesced.Inc()
		if req.Kind == mem.Write {
			c.writeMisses.Inc()
		} else {
			c.misses.Inc()
		}
		return true
	}

	// Allocate an MSHR from the appropriate pool.
	if req.Kind == mem.Write {
		if c.writeInUse >= c.cfg.MSHRWrite {
			c.mshrStalls.Inc()
			return false
		}
		c.writeInUse++
		c.writeMisses.Inc()
	} else {
		if c.readInUse >= c.cfg.MSHRRead {
			c.mshrStalls.Inc()
			return false
		}
		c.readInUse++
		c.misses.Inc()
	}

	m := c.newMSHR(la)
	m.isWrite = req.Kind == mem.Write
	m.waiters = append(m.waiters, waiter{markDirty: req.Kind == mem.Write, done: req.Done})
	c.pending[la] = m
	c.issueFill(m)
	c.train(req.Addr, true)
	return true
}

var _ mem.Port = (*Cache)(nil)

// CreditRefusals counts n accesses that full MSHRs would have refused,
// for a stalled core's skipped ticks. A refusal changes nothing else.
func (c *Cache) CreditRefusals(n uint64) { c.mshrStalls.Add(n) }

// Version reports the cache's refusal version, which moves whenever a
// fill (or Reset) frees an MSHR. Access refuses only when an MSHR pool
// is full, so an access it refused can succeed later only after the
// version moves or after an access of the requester's own opens an
// MSHR for the same line. A demand fill calls its requesters back too,
// but a prefetch fill has no waiter: the version is how a stalled
// requester learns of it.
func (c *Cache) Version() uint64 { return c.version }

// newMSHR draws a pooled MSHR, resetting it for line la.
func (c *Cache) newMSHR(la mem.Addr) *mshr {
	var m *mshr
	if n := len(c.mshrFree); n > 0 {
		m = c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
	} else {
		m = &mshr{c: c}
		m.fillFn = func(now sim.Cycle) { m.c.fillArrived(m) }
	}
	m.lineAddr = la
	m.waiters = m.waiters[:0]
	m.isWrite = false
	m.prefetch = false
	return m
}

// issueFill sends the line fill to the next level after the lookup
// latency, retrying each cycle if the next level exerts backpressure.
func (c *Cache) issueFill(m *mshr) {
	m.fill = mem.Request{
		Addr: m.lineAddr,
		Size: c.cfg.LineBytes,
		Kind: mem.Read,
		Done: m.fillFn,
	}
	c.engine.AfterEvent(c.cfg.Latency, m, 0)
}

// fillArrived installs the line, releases the MSHR's waiters, and
// returns it to the pool, moving the refusal version.
func (c *Cache) fillArrived(m *mshr) {
	c.install(m.lineAddr, false)
	ln := c.lookup(m.lineAddr)
	if ln != nil && m.prefetch {
		ln.prefetched = true
	}
	now := c.engine.Now()
	for _, w := range m.waiters {
		if w.markDirty && ln != nil {
			ln.dirty = true
		}
		if w.done != nil {
			w.done(now)
		}
	}
	delete(c.pending, m.lineAddr)
	if m.isWrite {
		c.writeInUse--
	} else {
		c.readInUse--
	}
	m.waiters = m.waiters[:0]
	c.mshrFree = append(c.mshrFree, m)
	c.version++
}

// install places a line, evicting the LRU victim (with writeback and
// back-invalidation of children if this cache is inclusive).
func (c *Cache) install(la mem.Addr, dirty bool) {
	set := c.sets[c.setIndex(la)]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto place
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	// Evict the victim.
	{
		v := &set[victim]
		c.evictions.Inc()
		vDirty := v.dirty
		for _, child := range c.children {
			if child.invalidate(mem.Addr(v.tag)) {
				vDirty = true
			}
			c.backInvals.Inc()
		}
		if vDirty {
			c.writeback(mem.Addr(v.tag))
		}
	}
place:
	c.lruClock++
	set[victim] = line{tag: uint64(la), valid: true, dirty: dirty, lru: c.lruClock}
}

// writeback issues a dirty line to the next level, retrying on pressure.
// Writeback state is pooled like the MSHRs.
func (c *Cache) writeback(la mem.Addr) {
	c.writebacks.Inc()
	c.evictInUse++
	var w *wbOp
	if n := len(c.wbFree); n > 0 {
		w = c.wbFree[n-1]
		c.wbFree = c.wbFree[:n-1]
	} else {
		w = &wbOp{c: c}
		w.doneFn = func(now sim.Cycle) {
			w.c.evictInUse--
			w.c.wbFree = append(w.c.wbFree, w)
		}
	}
	w.req = mem.Request{
		Addr: la,
		Size: c.cfg.LineBytes,
		Kind: mem.Write,
		Done: w.doneFn,
	}
	// First attempt fires synchronously, as before; retries go through
	// the event queue.
	if !c.next.Access(&w.req) {
		c.engine.AfterEvent(1, w, 0)
	}
}

// invalidate removes a line (if present), reporting whether it was dirty.
// Used for inclusive back-invalidation from the level below.
func (c *Cache) invalidate(la mem.Addr) bool {
	la = c.lineAddr(la)
	set := c.sets[c.setIndex(la)]
	tag := uint64(la)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			dirty := set[i].dirty
			set[i] = line{}
			// Recurse into our own children (L3 → L2 → L1).
			for _, child := range c.children {
				if child.invalidate(la) {
					dirty = true
				}
			}
			return dirty
		}
	}
	return false
}

// Contains reports whether the line holding addr is present (for tests).
func (c *Cache) Contains(addr mem.Addr) bool { return c.lookup(c.lineAddr(addr)) != nil }

// PendingMisses reports the number of outstanding fills (for tests).
func (c *Cache) PendingMisses() int { return len(c.pending) }

// train feeds the prefetcher and issues resulting prefetches if MSHRs are
// free (prefetches never stall demand traffic: dropped when full).
func (c *Cache) train(addr mem.Addr, miss bool) {
	if c.pf == nil {
		return
	}
	c.pfBuf = c.pf.observe(c.pfBuf[:0], addr, miss)
	for _, target := range c.pfBuf {
		la := c.lineAddr(target)
		if c.lookup(la) != nil {
			continue
		}
		if _, busy := c.pending[la]; busy {
			continue
		}
		if c.readInUse >= c.cfg.MSHRRead {
			c.pfDropped.Inc()
			continue
		}
		c.readInUse++
		c.prefetches.Inc()
		m := c.newMSHR(la)
		m.prefetch = true
		c.pending[la] = m
		c.issueFill(m)
	}
}
