package cache

import (
	"testing"
	"testing/quick"

	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// fixedMem is a test backing store with constant latency.
type fixedMem struct {
	engine   *sim.Engine
	latency  sim.Cycle
	accesses []mem.Request
	refuse   int // refuse the first N accesses (backpressure test)
}

func (f *fixedMem) Access(req *mem.Request) bool {
	if f.refuse > 0 {
		f.refuse--
		return false
	}
	f.accesses = append(f.accesses, *req)
	if req.Done != nil {
		done := f.engine.Now() + f.latency
		d := req.Done
		f.engine.Schedule(done, func() { d(done) })
	}
	return true
}

func smallCfg() Config {
	return Config{
		Name: "t", SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 2,
		MSHRRead: 4, MSHRWrite: 2, MSHREvict: 2,
	}
}

func newCache(t *testing.T, cfg Config, lat sim.Cycle) (*sim.Engine, *Cache, *fixedMem, *stats.Registry) {
	t.Helper()
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	fm := &fixedMem{engine: e, latency: lat}
	c, err := New(e, cfg, fm, reg)
	if err != nil {
		t.Fatal(err)
	}
	return e, c, fm, reg
}

func TestConfigValidate(t *testing.T) {
	if err := smallCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallCfg()
	bad.LineBytes = 60
	if bad.Validate() == nil {
		t.Fatal("non-pow2 line accepted")
	}
	bad = smallCfg()
	bad.Ways = 0
	if bad.Validate() == nil {
		t.Fatal("zero ways accepted")
	}
	bad = smallCfg()
	bad.SizeBytes = 1000
	if bad.Validate() == nil {
		t.Fatal("non-divisible size accepted")
	}
	bad = smallCfg()
	bad.SizeBytes = 384 // 6 lines / 2 ways = 3 sets: not pow2
	if bad.Validate() == nil {
		t.Fatal("non-pow2 sets accepted")
	}
	bad = smallCfg()
	bad.MSHRRead = 0
	if bad.Validate() == nil {
		t.Fatal("zero MSHRs accepted")
	}
	for _, cfg := range []Config{TableIL1(), TableIL2(), TableIL3()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Table I config %s invalid: %v", cfg.Name, err)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	e, c, fm, reg := newCache(t, smallCfg(), 100)
	var missDone, hitDone sim.Cycle
	c.Access(&mem.Request{Addr: 0, Size: 8, Kind: mem.Read,
		Done: func(n sim.Cycle) { missDone = n }})
	e.Run()
	// Lookup 2 + memory 100 = 102.
	if missDone != 102 {
		t.Fatalf("miss completed at %d, want 102", missDone)
	}
	if !c.Contains(0) {
		t.Fatal("line not installed after fill")
	}
	c.Access(&mem.Request{Addr: 8, Size: 8, Kind: mem.Read,
		Done: func(n sim.Cycle) { hitDone = n }})
	e.Run()
	if hitDone != missDone+2 {
		t.Fatalf("hit completed at %d, want %d", hitDone, missDone+2)
	}
	if reg.Scope("t").Get("read_hits") != 1 || reg.Scope("t").Get("read_misses") != 1 {
		t.Fatal("hit/miss counters wrong")
	}
	if len(fm.accesses) != 1 || fm.accesses[0].Size != 64 {
		t.Fatalf("backing accesses = %v", fm.accesses)
	}
}

func TestLineCrossingPanics(t *testing.T) {
	_, c, _, _ := newCache(t, smallCfg(), 10)
	defer func() {
		if recover() == nil {
			t.Fatal("line-crossing access did not panic")
		}
	}()
	c.Access(&mem.Request{Addr: 60, Size: 8, Kind: mem.Read})
}

func TestZeroSizePanics(t *testing.T) {
	_, c, _, _ := newCache(t, smallCfg(), 10)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size access did not panic")
		}
	}()
	c.Access(&mem.Request{Addr: 0, Size: 0, Kind: mem.Read})
}

func TestMissCoalescing(t *testing.T) {
	e, c, fm, reg := newCache(t, smallCfg(), 100)
	done := 0
	for i := 0; i < 3; i++ {
		c.Access(&mem.Request{Addr: mem.Addr(i * 8), Size: 8, Kind: mem.Read,
			Done: func(sim.Cycle) { done++ }})
	}
	e.Run()
	if done != 3 {
		t.Fatalf("%d of 3 coalesced waiters completed", done)
	}
	if len(fm.accesses) != 1 {
		t.Fatalf("coalesced misses issued %d fills", len(fm.accesses))
	}
	if reg.Scope("t").Get("coalesced_misses") != 2 {
		t.Fatal("coalesced counter wrong")
	}
}

func TestMSHRBackpressure(t *testing.T) {
	e, c, _, reg := newCache(t, smallCfg(), 1000)
	// 4 read MSHRs: 4 distinct-line misses accepted, 5th refused.
	for i := 0; i < 4; i++ {
		if !c.Access(&mem.Request{Addr: mem.Addr(i * 64), Size: 8, Kind: mem.Read}) {
			t.Fatalf("miss %d refused", i)
		}
	}
	if c.Access(&mem.Request{Addr: 5 * 64, Size: 8, Kind: mem.Read}) {
		t.Fatal("5th miss accepted beyond MSHR pool")
	}
	if reg.Scope("t").Get("mshr_stalls") != 1 {
		t.Fatal("stall counter wrong")
	}
	e.Run()
	// After fills drain, the access must be accepted.
	if !c.Access(&mem.Request{Addr: 5 * 64, Size: 8, Kind: mem.Read}) {
		t.Fatal("miss refused after MSHRs drained")
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	e, c, fm, reg := newCache(t, smallCfg(), 10)
	// Write misses allocate.
	c.Access(&mem.Request{Addr: 0, Size: 8, Kind: mem.Write})
	e.Run()
	if !c.Contains(0) {
		t.Fatal("write miss did not allocate")
	}
	// 1024B cache, 2 ways, 64B lines → 8 sets; set 0 holds lines 0 and 512.
	// Fill both ways of set 0, then a third line evicts the dirty line 0.
	c.Access(&mem.Request{Addr: 512, Size: 8, Kind: mem.Read})
	e.Run()
	c.Access(&mem.Request{Addr: 1024, Size: 8, Kind: mem.Read})
	e.Run()
	var sawWB bool
	for _, a := range fm.accesses {
		if a.Kind == mem.Write && a.Addr == 0 && a.Size == 64 {
			sawWB = true
		}
	}
	if !sawWB {
		t.Fatalf("dirty eviction did not write back; accesses: %+v", fm.accesses)
	}
	if reg.Scope("t").Get("writebacks") != 1 {
		t.Fatal("writeback counter wrong")
	}
	if c.Contains(0) {
		t.Fatal("evicted line still present")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	e, c, _, _ := newCache(t, smallCfg(), 10)
	// Set 0: lines 0, 512. Touch 0 again to make 512 the LRU victim.
	c.Access(&mem.Request{Addr: 0, Size: 8, Kind: mem.Read})
	e.Run()
	c.Access(&mem.Request{Addr: 512, Size: 8, Kind: mem.Read})
	e.Run()
	c.Access(&mem.Request{Addr: 0, Size: 8, Kind: mem.Read}) // refresh line 0
	e.Run()
	c.Access(&mem.Request{Addr: 1024, Size: 8, Kind: mem.Read})
	e.Run()
	if !c.Contains(0) || c.Contains(512) || !c.Contains(1024) {
		t.Fatal("LRU eviction picked the wrong victim")
	}
}

func TestBackpressureRetryToNextLevel(t *testing.T) {
	e, c, fm, _ := newCache(t, smallCfg(), 10)
	fm.refuse = 3 // next level refuses the first 3 attempts
	var doneAt sim.Cycle
	c.Access(&mem.Request{Addr: 0, Size: 8, Kind: mem.Read,
		Done: func(n sim.Cycle) { doneAt = n }})
	e.Run()
	// 2 (lookup) + 3 retry cycles + 10 = 15.
	if doneAt != 15 {
		t.Fatalf("retried fill completed at %d, want 15", doneAt)
	}
	if len(fm.accesses) != 1 {
		t.Fatal("fill duplicated under retry")
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	fm := &fixedMem{engine: e, latency: 10}
	// Tiny L2 (1 set x 2 ways) forcing evictions, with an L1 child.
	l2cfg := Config{Name: "tl2", SizeBytes: 128, Ways: 2, LineBytes: 64, Latency: 2,
		MSHRRead: 4, MSHRWrite: 4, MSHREvict: 4}
	l1cfg := Config{Name: "tl1", SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 1,
		MSHRRead: 4, MSHRWrite: 4, MSHREvict: 4}
	l2, err := New(e, l2cfg, fm, reg)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := New(e, l1cfg, l2, reg)
	if err != nil {
		t.Fatal(err)
	}
	l2.SetChildren(l1)

	// Dirty line 0 in L1 (writeback cached above L2).
	l1.Access(&mem.Request{Addr: 0, Size: 8, Kind: mem.Write})
	e.Run()
	// Two more lines push line 0 out of the 2-way L2 → must back-invalidate L1.
	l1.Access(&mem.Request{Addr: 64, Size: 8, Kind: mem.Read})
	e.Run()
	l1.Access(&mem.Request{Addr: 128, Size: 8, Kind: mem.Read})
	e.Run()
	if l1.Contains(0) {
		t.Fatal("L1 still holds line after inclusive L2 eviction")
	}
	// The dirty data must have reached memory.
	var sawWB bool
	for _, a := range fm.accesses {
		if a.Kind == mem.Write && a.Addr == 0 {
			sawWB = true
		}
	}
	if !sawWB {
		t.Fatal("dirty L1 line lost during back-invalidation")
	}
}

func TestHierarchyMissLatencyStacks(t *testing.T) {
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	fm := &fixedMem{engine: e, latency: 100}
	h, err := NewHierarchy(e, TableIL1(), TableIL2(), TableIL3(), fm, reg)
	if err != nil {
		t.Fatal(err)
	}
	var cold, warm sim.Cycle
	h.Access(&mem.Request{Addr: 4096, Size: 8, Kind: mem.Read,
		Done: func(n sim.Cycle) { cold = n }})
	e.Run()
	// 2 (L1) + 4 (L2) + 6 (L3) + 100 = 112.
	if cold != 112 {
		t.Fatalf("cold miss = %d, want 112", cold)
	}
	start := e.Now()
	h.Access(&mem.Request{Addr: 4100, Size: 8, Kind: mem.Read,
		Done: func(n sim.Cycle) { warm = n }})
	e.Run()
	if warm-start != 2 {
		t.Fatalf("L1 hit latency = %d, want 2", warm-start)
	}
}

func TestStreamPrefetcherHidesLatency(t *testing.T) {
	// Sequential line-by-line misses: after training, prefetches should
	// make later accesses hit.
	cfg := smallCfg()
	cfg.SizeBytes = 4096
	cfg.Prefetch = PrefetchStream
	cfg.PrefetchDegree = 4
	cfg.MSHRRead = 8
	e, c, _, reg := newCache(t, cfg, 50)
	for i := 0; i < 16; i++ {
		addr := mem.Addr(i * 64)
		var retry func()
		retry = func() {
			if !c.Access(&mem.Request{Addr: addr, Size: 8, Kind: mem.Read}) {
				e.After(1, retry)
			}
		}
		retry()
		e.Run()
	}
	sc := reg.Scope("t")
	if sc.Get("prefetches_issued") == 0 {
		t.Fatal("stream prefetcher never fired")
	}
	if sc.Get("read_hits") == 0 {
		t.Fatal("no prefetch hits on a pure sequential stream")
	}
}

func TestStridePrefetcherDetectsStride(t *testing.T) {
	p := newStridePrefetcher(64, 2)
	var got []mem.Addr
	// Stride of 128 within one region.
	for _, a := range []mem.Addr{0, 128, 256, 384} {
		got = p.observe(nil, a, true)
	}
	if len(got) != 2 || got[0] != 512 || got[1] != 640 {
		t.Fatalf("stride prefetcher proposed %v", got)
	}
	// A stride change resets confidence.
	if out := p.observe(nil, 400, true); out != nil {
		t.Fatalf("untrained stride fired: %v", out)
	}
}

func TestStridePrefetcherIgnoresZeroStride(t *testing.T) {
	p := newStridePrefetcher(64, 2)
	p.observe(nil, 0, true)
	for i := 0; i < 4; i++ {
		if out := p.observe(nil, 0, true); out != nil {
			t.Fatalf("zero stride proposed %v", out)
		}
	}
}

func TestStreamPrefetcherResetsOnNonSequential(t *testing.T) {
	p := newStreamPrefetcher(64, 2)
	p.observe(nil, 0, true)
	if out := p.observe(nil, 64, true); len(out) != 2 {
		t.Fatalf("sequential stream proposed %v", out)
	}
	if out := p.observe(nil, 1024, false); out != nil {
		t.Fatal("hit observation trained the stream prefetcher")
	}
	p.observe(nil, 320, true) // jump backward-ish: breaks the stream
	if out := p.observe(nil, 256, true); out != nil {
		t.Fatalf("broken stream still proposed %v", out)
	}
}

// Property: any access pattern completes all Done callbacks exactly once,
// and hits+misses equals the number of reads.
func TestAllAccessesCompleteProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e, c, _, reg := newCache(t, smallCfg(), 20)
		want := 0
		done := 0
		for _, r := range raw {
			addr := mem.Addr(r) * 8 // 8-byte aligned, within-line
			req := &mem.Request{Addr: addr, Size: 8, Kind: mem.Read,
				Done: func(sim.Cycle) { done++ }}
			var retry func()
			retry = func() {
				if !c.Access(req) {
					e.After(1, retry)
				}
			}
			retry()
			want++
			e.Run()
		}
		sc := reg.Scope("t")
		return done == want &&
			sc.Get("read_hits")+sc.Get("read_misses") == uint64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchKindString(t *testing.T) {
	if PrefetchNone.String() != "none" || PrefetchStride.String() != "stride" || PrefetchStream.String() != "stream" {
		t.Fatal("prefetch kind strings wrong")
	}
}

func TestConfigAccessor(t *testing.T) {
	_, c, _, _ := newCache(t, smallCfg(), 10)
	if c.Config().Name != "t" {
		t.Fatal("Config accessor wrong")
	}
	if c.PendingMisses() != 0 {
		t.Fatal("fresh cache has pending misses")
	}
}

func TestVersionMovesWhenAFillFreesAnMSHR(t *testing.T) {
	e, c, _, _ := newCache(t, smallCfg(), 100)
	v := c.Version()
	read := func(addr mem.Addr) bool {
		return c.Access(&mem.Request{Addr: addr, Size: 8, Kind: mem.Read, Done: func(sim.Cycle) {}})
	}
	// Four misses fill the read pool, one coalesces, the next is refused.
	for _, a := range []mem.Addr{0, 8, 64, 128, 192} {
		if !read(a) {
			t.Fatalf("access %d refused", a)
		}
	}
	if read(256) {
		t.Fatal("access beyond the MSHR pool accepted")
	}
	if c.Version() != v {
		t.Fatal("a miss, a coalesce or a refusal moved the version")
	}
	e.Run()
	if got := c.Version() - v; got != 4 {
		t.Fatalf("four demand fills moved the version by %d", got)
	}
	v = c.Version()
	if !read(0) {
		t.Fatal("hit refused")
	}
	e.Run()
	if c.Version() != v {
		t.Fatal("a hit moved the version")
	}
}

func TestVersionMovesOnPrefetchFill(t *testing.T) {
	cfg := smallCfg()
	cfg.Prefetch = PrefetchStride
	cfg.PrefetchDegree = 1
	e, c, _, reg := newCache(t, cfg, 100)
	// Line 256 is present untrained, so the third access of the stride
	// hits and only its prefetch of line 384 goes to memory.
	c.install(256, false)
	for _, a := range []mem.Addr{0, 128} {
		c.Access(&mem.Request{Addr: a, Size: 8, Kind: mem.Read})
		e.Run()
	}
	v := c.Version()
	c.Access(&mem.Request{Addr: 256, Size: 8, Kind: mem.Read})
	if reg.Scope("t").Get("prefetches_issued") != 1 || c.PendingMisses() != 1 {
		t.Fatal("the strided hit did not prefetch")
	}
	if c.Version() != v {
		t.Fatal("a hit moved the version")
	}
	e.Run()
	if c.Version() != v+1 {
		t.Fatalf("the prefetch fill moved the version by %d, want 1", c.Version()-v)
	}
}
