// Package sim provides the deterministic discrete-event simulation engine
// that drives every timing model in the HIPE reproduction.
//
// The engine keeps a monotonically increasing cycle counter (CPU cycles at
// the core frequency) and a priority queue of events. Events scheduled for
// the same cycle fire in FIFO order of their scheduling, which makes every
// simulation run bit-reproducible regardless of map iteration order or
// goroutine scheduling: the engine is strictly single-threaded.
//
// # Scheduler structure
//
// The queue is split into two lanes that together behave exactly like one
// priority queue ordered by (cycle, sequence number):
//
//   - a near-future ring of ringSize per-cycle FIFO buckets covering
//     [now, now+ringSize), with a bitmap tracking occupied buckets. The
//     overwhelming majority of events in the timing models are "a few
//     cycles ahead" (pipeline ticks, FU latencies, DRAM bank timings),
//     so they enqueue and dequeue in O(1) with no comparisons at all;
//   - a concrete-typed 4-ary min-heap for events at or beyond the ring
//     horizon (long DRAM refresh intervals, far ALU completions). 4-ary
//     halves the tree depth of a binary heap and keeps children of a node
//     in one cache line; there is no container/heap indirection and no
//     interface{} boxing of queue entries.
//
// Step compares the earliest ring event with the heap root under the
// global (cycle, seq) order, so an event that entered the heap when it
// was far away and a later event scheduled into the ring for the same
// cycle still fire in their scheduling order. See docs/ARCHITECTURE.md
// for the full determinism argument.
//
// # Parked clock domains
//
// A ClockDomain whose tick stalls — changes nothing but counters — parks
// instead of queueing its next tick. The engine holds that tick's
// (cycle, seq) slot, fires it for real once any other event has fired,
// and otherwise skips the stalled ticks of every clean parked domain
// together, crediting their counters, so the firing order and every
// counter match ticking every cycle (see Step and skip).
//
// Steady-state scheduling is allocation-free: bucket slices and the heap
// array retain their high-water capacity, and both event forms — a
// Handler implemented by a pre-bound model object, or a plain func —
// store into the queue entry without boxing (func values are
// pointer-shaped, so the Handler interface conversion does not allocate).
package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle uint64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// Handler is a pre-bound event target: a model object that receives the
// event directly, with no closure allocation at the scheduling site. The
// tag disambiguates multiple event kinds scheduled on one object, and
// now is the cycle the event fires at (== the cycle it was scheduled
// for). Schedule a Handler with ScheduleEvent/AfterEvent.
type Handler interface {
	OnEvent(now Cycle, tag uint64)
}

// fnHandler adapts a plain func() to Handler. A func value is
// pointer-shaped, so converting fnHandler to Handler does not allocate.
type fnHandler func()

func (f fnHandler) OnEvent(Cycle, uint64) { f() }

// callHandler adapts a completion callback func(Cycle) to Handler —
// the shape of mem.Request.Done and link.Packet.Done — passing the
// firing cycle through. Pointer-shaped: no boxing.
type callHandler func(now Cycle)

func (f callHandler) OnEvent(now Cycle, _ uint64) { f(now) }

// queuedEvent is one queue entry. Entries are stored by value in the
// ring buckets and the heap array; nothing is boxed.
type queuedEvent struct {
	cycle Cycle
	seq   uint64
	h     Handler
	tag   uint64
}

// before reports the global firing order: cycle, then scheduling
// sequence (FIFO within a cycle).
func (a *queuedEvent) before(b *queuedEvent) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// Near-future ring geometry. 256 cycles covers the overwhelming
// majority of the Table I models' delays (pipeline ticks, FU
// latencies up to the 40-cycle divider, link hops, most DRAM bank
// timings) while keeping the occupancy bitmap at four words; the few
// longer delays — closed-page DRAM worst cases around ~300 cycles,
// refresh intervals in the thousands — correctly fall to the heap
// lane, which preserves the same total order.
const (
	ringBits = 8
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// bucket is one ring slot: a FIFO of events for a single cycle. head
// indexes the next event to fire so dequeue never shifts; the slice
// resets to [:0] when drained, retaining capacity.
type bucket struct {
	evs  []queuedEvent
	head int
}

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Cycle
	seq uint64

	// ring holds events with cycle in [now, now+ringSize), indexed by
	// cycle & ringMask. occ is the occupancy bitmap (bit i ⇔ ring[i]
	// has unfired events). ringCount is the total across buckets.
	ring      [ringSize]bucket
	occ       [ringSize / 64]uint64
	ringCount int

	// heap is a 4-ary min-heap (by queuedEvent.before) of events at or
	// beyond the ring horizon.
	heap []queuedEvent

	// parked holds the clock domains whose last tick stalled, each
	// with its next tick's reserved (cycle, seq) slot. activity counts
	// fired events minus stalled ticks: a parked domain is clean while
	// activity has not moved since the domain parked.
	parked   []*ClockDomain
	activity uint64

	// executed counts events that have fired, for diagnostics.
	executed uint64
	// scheduled counts events enqueued; ringEvents/heapEvents split it by
	// the lane enqueue routed to. Plain field increments, so the Schedule
	// and Step zero-allocation pins are unaffected.
	scheduled  uint64
	ringEvents uint64
	heapEvents uint64
}

// Stats is a snapshot of the scheduler's event accounting: how many
// events were enqueued, how many fired, and which lane — the near-future
// ring or the far-future heap — each enqueue routed to. A parked clock
// domain's reserved tick is not an enqueue, so it fires without being
// counted as scheduled, and a skipped stalled tick is neither. The
// counters are cumulative since construction or the last Reset.
type Stats struct {
	Scheduled  uint64
	Executed   uint64
	RingEvents uint64
	HeapEvents uint64
}

// NewEngine returns an engine positioned at cycle 0 with no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to its post-NewEngine state — cycle 0, empty
// queue, sequence numbers restarted — while keeping the ring buckets'
// and heap's high-water capacity, so a reused engine schedules without
// reallocating. Pending events and parked clock domains are dropped.
func (e *Engine) Reset() {
	e.now, e.seq, e.executed = 0, 0, 0
	clear(e.parked)
	e.parked, e.activity = e.parked[:0], 0
	e.scheduled, e.ringEvents, e.heapEvents = 0, 0, 0
	if e.ringCount != 0 {
		for i := range e.ring {
			b := &e.ring[i]
			for j := b.head; j < len(b.evs); j++ {
				b.evs[j].h = nil
			}
			b.evs = b.evs[:0]
			b.head = 0
		}
		e.ringCount = 0
	}
	for i := range e.heap {
		e.heap[i] = queuedEvent{}
	}
	e.heap = e.heap[:0]
	for i := range e.occ {
		e.occ[i] = 0
	}
}

// Now reports the current simulation cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of events waiting to fire, counting each
// parked clock domain's reserved tick.
func (e *Engine) Pending() int { return e.ringCount + len(e.heap) + len(e.parked) }

// Executed reports the total number of events that have fired. Skipped
// stalled ticks never fire.
func (e *Engine) Executed() uint64 { return e.executed }

// Stats reports the scheduler's cumulative event accounting.
func (e *Engine) Stats() Stats {
	return Stats{
		Scheduled:  e.scheduled,
		Executed:   e.executed,
		RingEvents: e.ringEvents,
		HeapEvents: e.heapEvents,
	}
}

// Schedule queues fn to run at absolute cycle at. Scheduling in the past
// (at < Now) is a programming error and panics: allowing it would silently
// corrupt causality in the timing models.
func (e *Engine) Schedule(at Cycle, fn Event) {
	if fn == nil {
		panic("sim: schedule nil event")
	}
	e.enqueue(at, fnHandler(fn), 0)
}

// After queues fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) {
	e.Schedule(e.now+delay, fn)
}

// ScheduleCall queues cb to run at absolute cycle at, receiving that
// cycle as its argument. It is the allocation-free form for completion
// callbacks (mem.Request.Done and friends): where Schedule(at, func() {
// cb(at) }) would allocate a closure per event, ScheduleCall stores cb
// directly.
func (e *Engine) ScheduleCall(at Cycle, cb func(now Cycle)) {
	if cb == nil {
		panic("sim: schedule nil event")
	}
	e.enqueue(at, callHandler(cb), 0)
}

// AfterCall queues cb to run delay cycles from now, receiving the firing
// cycle.
func (e *Engine) AfterCall(delay Cycle, cb func(now Cycle)) {
	e.ScheduleCall(e.now+delay, cb)
}

// ScheduleEvent queues a pre-bound handler to fire at absolute cycle at
// with the given tag. This is the zero-alloc path for model objects that
// schedule themselves: the object pointer stores directly into the
// queue entry.
func (e *Engine) ScheduleEvent(at Cycle, h Handler, tag uint64) {
	if h == nil {
		panic("sim: schedule nil event")
	}
	e.enqueue(at, h, tag)
}

// AfterEvent queues a pre-bound handler tag cycles of delay from now.
func (e *Engine) AfterEvent(delay Cycle, h Handler, tag uint64) {
	e.ScheduleEvent(e.now+delay, h, tag)
}

// enqueue routes an event to the ring or the heap.
func (e *Engine) enqueue(at Cycle, h Handler, tag uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at cycle %d before now %d", at, e.now))
	}
	ev := queuedEvent{cycle: at, seq: e.seq, h: h, tag: tag}
	e.seq++
	e.scheduled++
	if at-e.now < ringSize {
		i := int(at & ringMask)
		b := &e.ring[i]
		b.evs = append(b.evs, ev)
		e.occ[i>>6] |= 1 << (uint(i) & 63)
		e.ringCount++
		e.ringEvents++
		return
	}
	e.heapEvents++
	e.heapPush(ev)
}

// nextRingBucket returns the index of the occupied ring bucket with the
// earliest cycle, scanning the occupancy bitmap from now's slot forward
// (at most four word reads plus one trailing-zeros). Call only when
// ringCount > 0.
func (e *Engine) nextRingBucket() int {
	start := int(e.now & ringMask)
	w := start >> 6
	// Mask off bits below start in the first word, then rotate through
	// the (wrapped) remaining words.
	if m := e.occ[w] &^ ((1 << (uint(start) & 63)) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	for k := 1; k <= len(e.occ); k++ {
		i := (w + k) & (len(e.occ) - 1)
		if m := e.occ[i]; i == w {
			// Wrapped fully: only bits below start remain.
			if m &= (1 << (uint(start) & 63)) - 1; m != 0 {
				return i<<6 + bits.TrailingZeros64(m)
			}
		} else if m != 0 {
			return i<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: ringCount > 0 with empty occupancy bitmap")
}

// Step fires the earliest pending event, advancing the clock to its
// cycle. Stalled ticks of clean parked clock domains on the way are
// skipped and credited, not fired. It reports false when no events
// remain, and panics when every pending tick belongs to a clean parked
// domain with no deadline: nothing could ever wake them.
func (e *Engine) Step() bool {
	for {
		if fired, pending := e.step(NoDeadline); fired || !pending {
			return fired
		}
	}
}

// step fires the earliest pending event — a queued event or a parked
// domain's reserved tick — unless that is a clean parked domain's
// stalled tick, which it skips instead (never past horizon). It reports
// whether an event fired and whether any is pending.
func (e *Engine) step(horizon Cycle) (fired, pending bool) {
	ev, i := e.head()
	if d := e.due(); d != nil && (ev == nil || d.next < ev.cycle || d.next == ev.cycle && d.seq < ev.seq) {
		if e.stalls(d) {
			e.skip(d, ev, horizon)
			return false, true
		}
		e.unpark(d)
		e.fire(d.next, d, 0)
		return true, true
	}
	if ev == nil {
		return false, false
	}
	q := e.pop(i)
	e.fire(q.cycle, q.h, q.tag)
	return true, true
}

// fire runs one event at its cycle. Every fired event counts as
// activity; a stalled tick takes its count back when it parks.
func (e *Engine) fire(at Cycle, h Handler, tag uint64) {
	e.now = at
	e.executed++
	e.activity++
	h.OnEvent(at, tag)
}

// head returns the earliest queued event under the (cycle, seq) order,
// merging the ring and heap lanes, and the ring bucket holding it (-1
// for the heap root); nil when the queue is empty.
func (e *Engine) head() (*queuedEvent, int) {
	if e.ringCount == 0 {
		if len(e.heap) == 0 {
			return nil, -1
		}
		return &e.heap[0], -1
	}
	i := e.nextRingBucket()
	b := &e.ring[i]
	ev := &b.evs[b.head]
	// A heap event can precede the ring head: its cycle may have entered
	// the ring window as now advanced, or tie the ring head's cycle with
	// an earlier sequence number.
	if len(e.heap) > 0 && e.heap[0].before(ev) {
		return &e.heap[0], -1
	}
	return ev, i
}

// pop removes and returns the queue head that head found in bucket i.
func (e *Engine) pop(i int) queuedEvent {
	if i < 0 {
		return e.heapPop()
	}
	b := &e.ring[i]
	ev := b.evs[b.head]
	b.evs[b.head].h = nil // release the reference; the slot is reused
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
		e.occ[i>>6] &^= 1 << (uint(i) & 63)
	}
	e.ringCount--
	return ev
}

// peekCycle reports the cycle of the earliest pending event.
func (e *Engine) peekCycle() (Cycle, bool) {
	ev, _ := e.head()
	if d := e.due(); d != nil && (ev == nil || d.next < ev.cycle) {
		return d.next, true
	}
	if ev == nil {
		return 0, false
	}
	return ev.cycle, true
}

// park holds a stalled domain's next tick out of the queue, in the slot
// tick-every-cycle would have queued it in: one period on, with the
// sequence number the re-arm would have taken now. The stalled tick
// does not count as activity.
func (e *Engine) park(d *ClockDomain, now Cycle) {
	e.activity--
	d.next, d.seq, d.mark = now+d.Period, e.seq, e.activity
	d.deadline = d.T.Deadline(now)
	e.seq++
	e.parked = append(e.parked, d)
}

// stalls reports whether parked domain d's reserved tick would stall
// again: d is clean — nothing but stalled ticks has fired since it
// parked — and the tick comes before its deadline.
func (e *Engine) stalls(d *ClockDomain) bool { return d.mark == e.activity && d.next < d.deadline }

func (e *Engine) unpark(d *ClockDomain) {
	for i, p := range e.parked {
		if p == d {
			last := len(e.parked) - 1
			e.parked[i], e.parked[last] = e.parked[last], nil
			e.parked = e.parked[:last]
			return
		}
	}
}

// due returns the parked domain whose reserved tick comes first.
func (e *Engine) due() *ClockDomain {
	var due *ClockDomain
	for _, d := range e.parked {
		if due == nil || d.slotBefore(due) {
			due = d
		}
	}
	return due
}

// skip jumps every clean parked domain over its stalled ticks before
// the next cycle at which anything can change: the next queued event, a
// dirty parked domain's tick, any parked domain's deadline, or horizon.
// Other clean domains' ticks do not bound it — they are stalled too.
// Each skipped tick is credited to its ticker, and each domain lands on
// its first tick at or after that cycle; due, whose tick comes first,
// always skips at least one. Landed ticks take fresh sequence numbers
// in the order tick-every-cycle would have queued them (landsBefore).
func (e *Engine) skip(due *ClockDomain, ev *queuedEvent, horizon Cycle) {
	until := horizon
	if ev != nil && ev.cycle < until {
		until = ev.cycle
	}
	for _, d := range e.parked {
		w := d.next // a tick that runs for real
		if e.stalls(d) {
			w = d.deadline
		}
		if w < until {
			until = w
		}
	}
	if until == NoDeadline {
		panic("sim: every clock domain is parked with nothing queued and no deadline: nothing can wake them")
	}
	landing := 0
	for _, d := range e.parked {
		switch {
		case !e.stalls(d):
			continue
		case d.next < until:
			d.skip = uint64((until-d.next-1)/d.Period) + 1
		case d == due:
			d.skip = 1
		default:
			continue
		}
		landing++
	}
	for ; landing > 0; landing-- {
		var first *ClockDomain
		for _, d := range e.parked {
			if d.skip > 0 && (first == nil || d.landsBefore(first)) {
				first = d
			}
		}
		first.T.Credit(first.skip)
		last := first.lastSkipped()
		if last > e.now {
			e.now = last
		}
		first.next, first.seq, first.skip = last+first.Period, e.seq, 0
		e.seq++
	}
}

// heapPush inserts into the 4-ary min-heap.
func (e *Engine) heapPush(ev queuedEvent) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// heapPop removes the heap root.
func (e *Engine) heapPop() queuedEvent {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = queuedEvent{} // clear the vacated slot for the GC
	h = h[:n]
	e.heap = h
	// Sift down: promote the smallest of up to four children.
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return root
}

// Run fires events until the queue is empty and returns the final cycle.
func (e *Engine) Run() Cycle {
	for e.Step() {
	}
	return e.now
}

// RunUntil fires every event with cycle <= limit, in order, and skips
// the parked domains' stalled ticks up to limit. It reports true if that
// drained the queue, false if events at cycles beyond limit remain. The
// clock is left at the cycle of the last event fired or tick skipped;
// it does not advance to limit when nothing lands exactly there (and
// does not move at all if nothing fires), so after RunUntil(limit) the
// clock reads the last real activity, not the probe horizon.
func (e *Engine) RunUntil(limit Cycle) bool {
	horizon := limit + 1
	if horizon == 0 {
		horizon = NoDeadline
	}
	for {
		c, ok := e.peekCycle()
		if !ok {
			return true
		}
		if c > limit {
			return false
		}
		e.step(horizon)
	}
}

// RunLimit fires at most n events; it reports the number actually fired.
// Skipped stalled ticks do not count. Useful as a watchdog in tests to
// catch livelock in timing models.
func (e *Engine) RunLimit(n uint64) uint64 {
	var fired uint64
	for fired < n && e.Step() {
		fired++
	}
	return fired
}
