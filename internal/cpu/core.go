package cpu

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// Stream supplies µops in program order (the correct execution path).
//
// An offload µop's Offload pointer is valid only until the stream's
// next Next call: a stream may keep its instructions in a buffer it
// reuses for the following block. The core copies the instruction at
// fetch, before it calls Next again.
type Stream interface {
	// Next returns the next µop; ok=false ends the program.
	Next() (isa.MicroOp, bool)
}

// SliceStream adapts a pre-built µop slice to the Stream interface.
type SliceStream struct {
	Ops []isa.MicroOp
	pos int
}

// Next implements Stream.
func (s *SliceStream) Next() (isa.MicroOp, bool) {
	if s.pos >= len(s.Ops) {
		return isa.MicroOp{}, false
	}
	op := s.Ops[s.pos]
	s.pos++
	return op, true
}

// OffloadPort accepts HMC/HIVE/HIPE instructions departing the core.
type OffloadPort interface {
	// Submit sends one instruction toward the cube; done fires when the
	// response arrives back at the core. Submit reports false if the port
	// cannot accept this cycle (retry later). A refusal holds for every
	// instruction of the same Target until the cycle ends: a port that
	// can credit its refusals (refusalCounter) is not asked again that
	// cycle for the target it refused, and is credited instead.
	Submit(inst *isa.OffloadInst, done func(now sim.Cycle)) bool
}

// refusalCounter is a port whose refusals change nothing but its own
// count of them, so a stalled core's skipped ticks can credit it in
// bulk. Its refusals must also hold until a completion callback into
// the core fires or, for a data cache with a refusal version
// (versioned), until the version moves: a stalled tick replays on that
// promise (see replays).
type refusalCounter interface {
	CreditRefusals(n uint64)
}

// versioned is a data cache whose refusals can end without a call into
// the core, as the L1's do when a prefetch fill frees an MSHR. Version
// moves whenever that happens.
type versioned interface {
	Version() uint64
}

// The ports that can refuse a request, indexing stallCounts.refused.
const (
	portDCache = iota
	portUMem
	portOffload
	numPorts
)

// stallCounts is one tick's increments of the counters a stalled tick
// can bump. Every tick adds them once; Credit adds them again for each
// tick the engine skipped.
type stallCounts struct {
	fetch, rob, mob, retry uint64
	refused                [numPorts]uint64
}

type entryState uint8

const (
	stWaiting entryState = iota
	stReady
	stExecuting
	stDone
)

type fetchedOp struct {
	uop          isa.MicroOp
	seq          uint64
	mispredicted bool
}

// robEntry event tags (sim.Handler).
const (
	tagComplete uint64 = iota
	tagBranchResolve
)

// robEntry is one in-flight µop. Entries are pooled: the core draws
// them from a free list at dispatch and returns them after commit (for
// stores, after the drained write completes), so steady-state execution
// allocates nothing per µop. The embedded request and the pre-bound
// callbacks (created once, when the entry is first constructed) replace
// the per-µop closure and request allocations of the old pipeline.
type robEntry struct {
	c *Core
	fetchedOp
	state entryState
	deps  int
	inROB bool

	// The entry's waiters — the entries that read its result — form a
	// list in dispatch order threaded through the waiters themselves:
	// next[k] follows a waiter's edge for its source operand k. So a
	// dependency costs no allocation, however many waiters an entry has.
	waitHead, waitTail waitLink
	next               [2]waitLink

	// req is the entry's memory access (load at issue, store at drain).
	req         mem.Request
	uncacheable bool

	// Pre-bound completion callbacks (one-time per pooled entry).
	loadDone  func(now sim.Cycle) // load/offload response: frees MOB read slot
	storeDone func(now sim.Cycle) // store drain: frees MOB write slot, releases entry
}

// OnEvent implements sim.Handler: FU completions and branch resolution
// are scheduled directly on the entry.
func (e *robEntry) OnEvent(now sim.Cycle, tag uint64) {
	c := e.c
	c.dirty = true
	if tag == tagBranchResolve {
		if c.hasBlockingBr && c.blockingBranch == e.seq {
			// Resolving mispredicted branch: restart the front end after
			// the refill penalty.
			c.hasBlockingBr = false
			c.fetchStallUntil = now + c.cfg.MispredictPenalty
		}
	}
	c.complete(e)
}

// Core is one out-of-order processor core.
type Core struct {
	cfg    Config
	engine *sim.Engine

	dcache  mem.Port    // cacheable path (L1D)
	umem    mem.Port    // uncacheable path (directly toward the cube)
	offload OffloadPort // HMC/HIVE/HIPE instruction path

	stream     Stream
	streamDone bool
	nextSeq    uint64
	retired    uint64 // sequence number of the next µop to commit

	// offSlots is the core's copy of each in-flight offload µop's
	// instruction, a ring indexed by sequence number: fetch copies the
	// stream's instruction into its slot and re-points the µop there.
	// The ring is at least as long as the fetch buffer, decode buffer
	// and ROB together, so a slot comes round again only after its µop
	// has committed.
	offSlots []isa.OffloadInst

	fetchBuf  sim.Queue[fetchedOp]
	decodeBuf sim.Queue[fetchedOp]
	rob       sim.Queue[*robEntry]
	readyQ    []*robEntry
	readyKeep []*robEntry // scratch for issue's keep list, swapped each cycle

	entryFree []*robEntry

	producers renameTable

	mobReads      int // in-flight loads + offloads
	mobWrites     int // in-flight committed stores
	pendingStores sim.Queue[*robEntry]

	fetchStallUntil sim.Cycle
	blockingBranch  uint64 // seq of the unresolved mispredicted branch
	hasBlockingBr   bool
	issuedThisCycle [fuClasses]int
	divBusyUntil    [fuClasses][]sim.Cycle
	pred            *branchPredictor
	domain          *sim.ClockDomain
	refusers        [numPorts]refusalCounter // nil: the port cannot be credited
	dcacheVersion   versioned                // nil: dcache's refusals end with a callback
	progressed      bool                     // this tick changed pipeline state
	counts          stallCounts              // this tick's counter increments
	startCycle      sim.Cycle
	finishCycle     sim.Cycle
	running         bool
	onFinish        func()

	// Replay state. dirty is set by every callback into the core and by
	// Start; a stalled tick clears it and records its deadline (wake)
	// and dcache's version (seen). refusedTargets and skipped are
	// issue's per-tick offload refusals by target and the Submit calls
	// they saved. replayOff runs every tick in full and offers every
	// offload to the port: the reference tests compare against.
	dirty          bool
	wake           sim.Cycle
	seen           uint64
	refusedTargets uint64
	skipped        uint64
	replayOff      bool

	committed   *stats.Counter
	branches    *stats.Counter
	mispredicts *stats.Counter
	btbMisses   *stats.Counter
	fetchStalls *stats.Counter
	robStalls   *stats.Counter
	mobStalls   *stats.Counter
	cacheRetry  *stats.Counter
	loads       *stats.Counter
	stores      *stats.Counter
	offloads    *stats.Counter
	cycles      *stats.Counter
}

// New builds a core. dcache is the L1 entry point; umem is the
// uncacheable path to memory; offloadPort carries cube instructions (may
// be nil for a pure x86 core, in which case Offload µops panic).
func New(engine *sim.Engine, cfg Config, dcache, umem mem.Port, offloadPort OffloadPort, reg *stats.Registry) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		cfg:     cfg,
		engine:  engine,
		dcache:  dcache,
		umem:    umem,
		offload: offloadPort,
		pred:    newBranchPredictor(cfg.GHRBits, cfg.PHTEntries, cfg.BTBEntries),
	}
	for i := range c.divBusyUntil {
		if !cfg.FUs[i].Pipelined {
			c.divBusyUntil[i] = make([]sim.Cycle, cfg.FUs[i].Units)
		}
	}
	slots := 1
	for slots < cfg.FetchBufSize+cfg.DecodeBufSize+cfg.ROBSize {
		slots <<= 1
	}
	c.offSlots = make([]isa.OffloadInst, slots)
	sc := reg.Scope(cfg.Name)
	c.committed = sc.Counter("committed_uops")
	c.branches = sc.Counter("branches")
	c.mispredicts = sc.Counter("branch_mispredicts")
	c.btbMisses = sc.Counter("btb_misses")
	c.fetchStalls = sc.Counter("fetch_stall_cycles")
	c.robStalls = sc.Counter("rob_full_stalls")
	c.mobStalls = sc.Counter("mob_stalls")
	c.cacheRetry = sc.Counter("cache_retries")
	c.loads = sc.Counter("loads")
	c.stores = sc.Counter("stores")
	c.offloads = sc.Counter("offload_insts")
	c.cycles = sc.Counter("active_cycles")
	c.refusers[portDCache], _ = dcache.(refusalCounter)
	c.refusers[portUMem], _ = umem.(refusalCounter)
	c.refusers[portOffload], _ = offloadPort.(refusalCounter)
	c.dcacheVersion, _ = dcache.(versioned)
	c.domain = sim.NewClockDomain(engine, 1, c)
	return c, nil
}

// newEntry draws a pooled entry and initialises it for f.
func (c *Core) newEntry(f fetchedOp) *robEntry {
	var e *robEntry
	if n := len(c.entryFree); n > 0 {
		e = c.entryFree[n-1]
		c.entryFree = c.entryFree[:n-1]
	} else {
		e = &robEntry{c: c}
		e.loadDone = func(now sim.Cycle) {
			e.c.dirty = true
			e.c.mobReads--
			e.c.complete(e)
		}
		e.storeDone = func(now sim.Cycle) {
			e.c.dirty = true
			e.c.mobWrites--
			e.c.release(e)
		}
	}
	e.fetchedOp = f
	e.state = stWaiting
	e.deps = 0
	e.waitHead, e.waitTail = waitLink{}, waitLink{}
	e.inROB = true
	e.uncacheable = false
	return e
}

// release returns an entry to the pool. Callers must guarantee nothing
// still references it (see commit and storeDone).
func (c *Core) release(e *robEntry) {
	c.entryFree = append(c.entryFree, e)
}

// Reset returns the core to its post-New state: pipeline empty,
// predictor untrained, MOB free, clock domain never ticked. In-flight
// entries are recovered into the pool (a machine reset drops their
// completion events with the engine's queue). Counters are zeroed by
// the registry reset the machine performs alongside.
func (c *Core) Reset() {
	c.stream = nil
	c.streamDone = false
	c.nextSeq, c.retired = 0, 0
	clear(c.offSlots)
	c.fetchBuf.Reset()
	c.decodeBuf.Reset()
	for c.rob.Len() > 0 {
		c.release(c.rob.Pop())
	}
	for c.pendingStores.Len() > 0 {
		c.release(c.pendingStores.Pop())
	}
	c.readyQ = c.readyQ[:0]
	c.readyKeep = c.readyKeep[:0]
	c.producers.reset()
	c.mobReads, c.mobWrites = 0, 0
	c.fetchStallUntil = 0
	c.blockingBranch, c.hasBlockingBr = 0, false
	c.issuedThisCycle = [fuClasses]int{}
	for i := range c.divBusyUntil {
		for j := range c.divBusyUntil[i] {
			c.divBusyUntil[i][j] = 0
		}
	}
	c.pred.reset()
	c.domain.Reset()
	c.dirty, c.wake = false, 0
	c.startCycle, c.finishCycle = 0, 0
	c.running = false
	c.onFinish = nil
}

// Start begins executing a µop stream; onFinish (optional) fires when the
// last µop has committed and all stores have drained.
func (c *Core) Start(s Stream, onFinish func()) {
	if c.running {
		panic("cpu: core already running")
	}
	c.stream = s
	c.streamDone = false
	c.running = true
	c.dirty = true
	c.onFinish = onFinish
	c.startCycle = c.engine.Now()
	c.domain.Kick()
}

// Cycles reports the cycles consumed by the last completed run.
func (c *Core) Cycles() sim.Cycle { return c.finishCycle - c.startCycle }

// Committed reports total committed µops.
func (c *Core) Committed() uint64 { return c.committed.Value() }

// Tick implements sim.Ticker: one pipeline cycle. The tick stalls when
// no stage retires, issues, dispatches, decodes, fetches or drains a
// store, and no non-pipelined unit is reserved. A tick that would
// repeat the last stalled tick exactly replays it instead: it credits
// that tick's counts once and runs no stage.
func (c *Core) Tick(now sim.Cycle) sim.TickResult {
	if c.replays(now) {
		c.Credit(1)
		return sim.Stalled
	}
	c.dirty = false
	for i := range c.issuedThisCycle {
		c.issuedThisCycle[i] = 0
	}
	c.progressed = false
	c.counts = stallCounts{}
	c.commit(now)
	c.issue(now)
	c.dispatch()
	c.decode()
	c.fetch(now)
	c.drainStores()
	c.addCounts(1)

	if c.idle() {
		c.running = false
		c.finishCycle = now
		if c.onFinish != nil {
			f := c.onFinish
			c.onFinish = nil
			f()
		}
		return sim.Idle
	}
	if c.progressed {
		c.dirty = true
		return sim.Busy
	}
	c.wake = c.stallDeadline(now)
	if c.dcacheVersion != nil {
		c.seen = c.dcacheVersion.Version()
	}
	return sim.Stalled
}

// replays reports whether a tick at now would repeat the last stalled
// tick. A stalled tick reads only the core's own state, now against
// its deadline, and the acceptance state of the ports that refused it.
// The core's state changes only in its stages, which mark progress, and
// in its callbacks, which mark it dirty. A port's refusal holds until it
// calls the core back or, for a versioned data cache, its version moves
// (refusalCounter). So a clean core before the deadline, with dcache's
// version unchanged, would do exactly what its last stalled tick did.
func (c *Core) replays(now sim.Cycle) bool {
	if c.dirty || now >= c.wake || c.replayOff {
		return false
	}
	return c.dcacheVersion == nil || c.dcacheVersion.Version() == c.seen
}

// Deadline implements sim.Ticker: the deadline the last real stalled
// tick recorded. A replayed tick comes before it, so the deadline
// computed at the replay's cycle would be the same.
func (c *Core) Deadline(sim.Cycle) sim.Cycle { return c.wake }

// stallDeadline is when a core stalled at now can move on its own: a
// fetch bubble ends or a busy non-pipelined unit frees up.
func (c *Core) stallDeadline(now sim.Cycle) sim.Cycle {
	d := sim.NoDeadline
	if c.fetchStallUntil > now {
		d = c.fetchStallUntil
	}
	for _, units := range c.divBusyUntil {
		for _, busy := range units {
			if busy > now && busy < d {
				d = busy
			}
		}
	}
	return d
}

// Credit implements sim.Ticker: n skipped stalled ticks count the
// stalled tick's cycle, stalls, retries and port refusals n more times.
func (c *Core) Credit(n uint64) {
	c.addCounts(n)
	for k, r := range c.counts.refused {
		if r > 0 {
			c.refusers[k].CreditRefusals(n * r)
		}
	}
}

// addCounts adds n times this tick's own counter increments.
func (c *Core) addCounts(n uint64) {
	c.cycles.Add(n)
	c.fetchStalls.Add(n * c.counts.fetch)
	c.robStalls.Add(n * c.counts.rob)
	c.mobStalls.Add(n * c.counts.mob)
	c.cacheRetry.Add(n * c.counts.retry)
}

// refused notes that port k turned a request away this tick. A port
// that cannot be credited in bulk makes the tick count as progress, so
// it is never skipped.
func (c *Core) refused(k int) {
	c.counts.refused[k]++
	if c.refusers[k] == nil {
		c.progressed = true
	}
}

func (c *Core) idle() bool {
	return c.streamDone &&
		c.fetchBuf.Len() == 0 && c.decodeBuf.Len() == 0 && c.rob.Len() == 0 &&
		c.pendingStores.Len() == 0 && c.mobWrites == 0 && c.mobReads == 0
}

// fetch brings µops into the fetch buffer, honoring the fetch-group byte
// budget, the one-branch-per-fetch rule, and branch-induced stalls.
func (c *Core) fetch(now sim.Cycle) {
	if c.streamDone || c.hasBlockingBr {
		return
	}
	if now < c.fetchStallUntil {
		c.counts.fetch++
		return
	}
	budget := int(c.cfg.FetchBytes / c.cfg.InstBytes)
	branches := 0
	for budget > 0 && c.fetchBuf.Len() < c.cfg.FetchBufSize {
		uop, ok := c.stream.Next()
		c.progressed = true
		if !ok {
			c.streamDone = true
			return
		}
		f := fetchedOp{uop: uop, seq: c.nextSeq}
		c.nextSeq++
		if uop.Class == isa.Offload {
			f.uop.Offload = c.holdOffload(f.seq, uop.Offload)
		}
		if uop.Class == isa.Branch {
			branches++
			c.branches.Inc()
			predicted := c.pred.predict(uop.PC)
			c.pred.update(uop.PC, uop.Taken)
			btbHit := c.pred.btbHit(uop.PC)
			if predicted != uop.Taken {
				// Fetch halts until this branch resolves at execute.
				f.mispredicted = true
				c.mispredicts.Inc()
				c.hasBlockingBr = true
				c.blockingBranch = f.seq
				c.fetchBuf.Push(f)
				return
			}
			if uop.Taken && !btbHit {
				// Correct direction but unknown target: redirect bubble.
				c.btbMisses.Inc()
				c.fetchStallUntil = now + c.cfg.BTBMissPenalty
				c.fetchBuf.Push(f)
				return
			}
			if uop.Taken || branches >= c.cfg.MaxBranchFetch {
				// Taken branches end the fetch group.
				c.fetchBuf.Push(f)
				return
			}
		}
		c.fetchBuf.Push(f)
		budget--
	}
}

// holdOffload copies the instruction of offload µop seq into the core's
// slot for it and returns the slot.
func (c *Core) holdOffload(seq uint64, in *isa.OffloadInst) *isa.OffloadInst {
	if seq-c.retired >= uint64(len(c.offSlots)) {
		panic(fmt.Sprintf("cpu %s: offload µop %d would reuse the slot of uncommitted µop %d",
			c.cfg.Name, seq, seq-uint64(len(c.offSlots))))
	}
	slot := &c.offSlots[seq&uint64(len(c.offSlots)-1)]
	*slot = *in
	return slot
}

// decode moves µops from the fetch buffer to the decode buffer.
func (c *Core) decode() {
	n := c.cfg.DecodeWidth
	for n > 0 && c.fetchBuf.Len() > 0 && c.decodeBuf.Len() < c.cfg.DecodeBufSize {
		c.decodeBuf.Push(c.fetchBuf.Pop())
		c.progressed = true
		n--
	}
}

// dispatch renames µops into the ROB and resolves dependencies.
func (c *Core) dispatch() {
	n := c.cfg.IssueWidth
	for n > 0 && c.decodeBuf.Len() > 0 {
		if c.rob.Len() >= c.cfg.ROBSize {
			c.counts.rob++
			return
		}
		f := c.decodeBuf.Pop()
		e := c.newEntry(f)
		for k, src := range [2]isa.Reg{f.uop.Src1, f.uop.Src2} {
			if src == isa.RegNone {
				continue
			}
			if p := c.producers.get(src); p != nil && p.state != stDone {
				e.deps++
				p.addWaiter(waitLink{e, uint8(k)})
			}
		}
		if f.uop.Dst != isa.RegNone {
			c.producers.set(e)
		}
		c.rob.Push(e)
		if e.deps == 0 {
			e.state = stReady
			c.readyQ = append(c.readyQ, e)
		}
		c.progressed = true
		n--
	}
}

// issue selects ready µops (oldest first) respecting FU and MOB limits.
// The keep list reuses a scratch buffer swapped with readyQ each cycle.
func (c *Core) issue(now sim.Cycle) {
	issued := 0
	c.refusedTargets = 0
	keep := c.readyKeep[:0]
	for _, e := range c.readyQ {
		if issued >= c.cfg.IssueWidth {
			keep = append(keep, e)
			continue
		}
		if !c.tryIssue(e, now) {
			keep = append(keep, e)
			continue
		}
		issued++
	}
	c.readyKeep = c.readyQ[:0]
	c.readyQ = keep
	if issued > 0 {
		c.progressed = true
	}
	if c.skipped > 0 {
		c.refusers[portOffload].CreditRefusals(c.skipped)
		c.skipped = 0
	}
}

// tryIssue attempts to start execution of one µop.
func (c *Core) tryIssue(e *robEntry, now sim.Cycle) bool {
	fu := fuFor(e.uop.Class)
	fuCfg := &c.cfg.FUs[fu]
	if fuCfg.Pipelined {
		if c.issuedThisCycle[fu] >= fuCfg.Units {
			return false
		}
	} else {
		unit := -1
		for i, busy := range c.divBusyUntil[fu] {
			if busy <= now {
				unit = i
				break
			}
		}
		if unit < 0 {
			return false
		}
		c.divBusyUntil[fu][unit] = now + fuCfg.Latency
		c.progressed = true
	}

	switch e.uop.Class {
	case isa.Load:
		if c.mobReads >= c.cfg.MOBReads {
			c.counts.mob++
			return false
		}
		port, k := c.dcache, portDCache
		if e.uop.Uncacheable {
			port, k = c.umem, portUMem
		}
		e.req = mem.Request{Addr: e.uop.Addr, Size: e.uop.Size, Kind: mem.Read, Done: e.loadDone}
		if !port.Access(&e.req) {
			c.counts.retry++
			c.refused(k)
			return false
		}
		c.mobReads++
		c.loads.Inc()
		e.state = stExecuting
		c.issuedThisCycle[fu]++
		return true

	case isa.Offload:
		if c.offload == nil {
			panic(fmt.Sprintf("cpu %s: offload µop without an offload port", c.cfg.Name))
		}
		if c.mobReads >= c.cfg.MOBReads {
			c.counts.mob++
			return false
		}
		if !c.submit(e) {
			c.counts.retry++
			c.refused(portOffload)
			return false
		}
		c.mobReads++
		c.offloads.Inc()
		e.state = stExecuting
		c.issuedThisCycle[fu]++
		return true

	case isa.Store:
		// Address generation only; the write drains post-commit.
		e.state = stExecuting
		c.issuedThisCycle[fu]++
		c.engine.ScheduleEvent(now+fuCfg.Latency, e, tagComplete)
		return true

	default:
		e.state = stExecuting
		c.issuedThisCycle[fu]++
		done := now + fuCfg.Latency
		if e.uop.Class == isa.Branch && e.mispredicted {
			c.engine.ScheduleEvent(done, e, tagBranchResolve)
		} else {
			c.engine.ScheduleEvent(done, e, tagComplete)
		}
		return true
	}
}

// submit offers e's instruction to the offload port. Once the port has
// refused a target this tick, later instructions for that target are
// refused without asking it (OffloadPort), and issue credits the port
// for them.
func (c *Core) submit(e *robEntry) bool {
	bit := uint64(1) << e.uop.Offload.Target
	if c.refusedTargets&bit != 0 {
		c.skipped++
		return false
	}
	if c.offload.Submit(e.uop.Offload, e.loadDone) {
		return true
	}
	if c.refusers[portOffload] != nil && !c.replayOff {
		c.refusedTargets |= bit
	}
	return false
}

// waitLink is one edge of a waiter list: the waiting entry and which of
// its source operands the edge is.
type waitLink struct {
	e *robEntry
	k uint8
}

// addWaiter appends l to p's waiters.
func (p *robEntry) addWaiter(l waitLink) {
	l.e.next[l.k] = waitLink{}
	if p.waitHead.e == nil {
		p.waitHead = l
	} else {
		p.waitTail.e.next[p.waitTail.k] = l
	}
	p.waitTail = l
}

// complete marks a µop done and wakes dependents in dispatch order.
func (c *Core) complete(e *robEntry) {
	e.state = stDone
	if e.uop.Dst != isa.RegNone {
		c.producers.drop(e)
	}
	for l := e.waitHead; l.e != nil; l = l.e.next[l.k] {
		w := l.e
		w.deps--
		if w.deps == 0 && w.state == stWaiting {
			w.state = stReady
			c.readyQ = append(c.readyQ, w)
		}
	}
	e.waitHead, e.waitTail = waitLink{}, waitLink{}
}

// commit retires done µops in order; stores enter the store buffer here.
// Retired non-store entries return to the pool immediately: their
// completion event has fired (state is stDone), their waiters list is
// drained, and complete() removed any producer-table reference. Store
// entries return after their drained write completes (storeDone).
func (c *Core) commit(now sim.Cycle) {
	n := c.cfg.CommitWidth
	for n > 0 && c.rob.Len() > 0 {
		e := *c.rob.Front()
		if e.state != stDone {
			return
		}
		if e.uop.Class == isa.Store {
			if c.mobWrites >= c.cfg.MOBWrites {
				c.counts.mob++
				return
			}
			c.mobWrites++
			c.stores.Inc()
			e.req = mem.Request{Addr: e.uop.Addr, Size: e.uop.Size, Kind: mem.Write, Done: e.storeDone}
			e.uncacheable = e.uop.Uncacheable
			c.pendingStores.Push(e)
		}
		c.rob.Pop()
		e.inROB = false
		c.retired = e.seq + 1
		c.committed.Inc()
		c.progressed = true
		if e.uop.Class != isa.Store {
			c.release(e)
		}
		n--
	}
}

// drainStores pushes buffered stores into the memory system in order.
func (c *Core) drainStores() {
	for c.pendingStores.Len() > 0 {
		e := *c.pendingStores.Front()
		port, k := c.dcache, portDCache
		if e.uncacheable {
			port, k = c.umem, portUMem
		}
		if !port.Access(&e.req) {
			c.refused(k)
			return
		}
		c.pendingStores.Pop()
		c.progressed = true
	}
}
