package sim

// Tests for the two-lane scheduler: a randomized equivalence property
// against the pre-refactor container/heap ordering semantics, the
// zero-alloc steady-state guarantee, and the RunUntil boundary contract.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap reproduce the old scheduler's ordering semantics
// exactly: a container/heap priority queue over (cycle, seq), seq
// assigned in scheduling order. The property tests replay identical
// schedule sequences through this reference and the real engine and
// demand identical firing orders, same-cycle FIFO ties included.
type refEvent struct {
	cycle Cycle
	seq   uint64
	id    int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)       { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any         { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }
func (h *refHeap) push(ev refEvent) { heap.Push(h, ev) }
func (h *refHeap) pop() refEvent    { return heap.Pop(h).(refEvent) }
func (h *refHeap) schedule(now Cycle, at Cycle, seq *uint64, id int) {
	if at < now {
		panic("ref: schedule in the past")
	}
	h.push(refEvent{cycle: at, seq: *seq, id: id})
	*seq++
}

// scheduleOp is one replayable scheduling decision, drawn once per trial
// and applied identically to both schedulers.
type scheduleOp struct {
	delay Cycle
	// nested, when >= 0, schedules a follow-up event with this op index
	// from inside the event body (exercising schedule-during-fire).
	nested int
}

// TestSchedulerMatchesReferenceOrder replays random schedule sequences —
// bursts of same-cycle ties, deltas straddling the ring horizon, and
// nested scheduling from inside firing events — through the reference
// heap and the engine, asserting identical firing order.
func TestSchedulerMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(120)
		ops := make([]scheduleOp, n)
		for i := range ops {
			var delay Cycle
			switch rng.Intn(4) {
			case 0:
				delay = Cycle(rng.Intn(4)) // same-cycle ties and tiny deltas
			case 1:
				delay = Cycle(rng.Intn(ringSize)) // inside the near-future ring
			case 2:
				delay = Cycle(ringSize - 2 + rng.Intn(5)) // straddling the horizon
			default:
				delay = Cycle(rng.Intn(5 * ringSize)) // far heap lane
			}
			nested := -1
			if rng.Intn(3) == 0 {
				nested = rng.Intn(n)
			}
			ops[i] = scheduleOp{delay: delay, nested: nested}
		}
		// Nested events may chain; bound the replay length.
		const maxFired = 4000

		// Reference run: simulate the old heap with the same nesting rule.
		ref := &refHeap{}
		var refOrder []int
		{
			var now Cycle
			var seq uint64
			nextID := 0
			emit := func(op scheduleOp) int {
				id := nextID
				nextID++
				ref.schedule(now, now+op.delay, &seq, id)
				return id
			}
			pendingNested := map[int]int{} // id -> op index of nested schedule
			for i, op := range ops {
				id := emit(op)
				pendingNested[id] = op.nested
				_ = i
			}
			for ref.Len() > 0 && len(refOrder) < maxFired {
				ev := ref.pop()
				now = ev.cycle
				refOrder = append(refOrder, ev.id)
				if nestedIdx := pendingNested[ev.id]; nestedIdx >= 0 {
					op := ops[nestedIdx]
					nid := emit(scheduleOp{delay: op.delay})
					pendingNested[nid] = -1
				}
			}
		}

		// Engine run with the identical sequence of decisions.
		e := NewEngine()
		var engOrder []int
		{
			nextID := 0
			var schedule func(op scheduleOp, nested int)
			schedule = func(op scheduleOp, nested int) {
				id := nextID
				nextID++
				e.Schedule(e.Now()+op.delay, func() {
					engOrder = append(engOrder, id)
					if nested >= 0 {
						schedule(scheduleOp{delay: ops[nested].delay}, -1)
					}
				})
			}
			for _, op := range ops {
				schedule(op, op.nested)
			}
			for len(engOrder) < maxFired && e.Step() {
			}
		}

		if len(refOrder) != len(engOrder) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(engOrder), len(refOrder))
		}
		for i := range refOrder {
			if refOrder[i] != engOrder[i] {
				t.Fatalf("trial %d: firing order diverges at %d: engine %v, reference %v",
					trial, i, engOrder[:i+1], refOrder[:i+1])
			}
		}
	}
}

// TestSchedulerMixedLaneSameCycleFIFO pins the trickiest ordering case:
// an event that entered the far heap, whose cycle later falls inside the
// ring window, must still fire before a ring event at the same cycle
// scheduled after it — and after one scheduled... it can't be scheduled
// before it without being in the heap too. Sequence numbers decide.
func TestSchedulerMixedLaneSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []string
	target := Cycle(ringSize + 10)
	// seq 0: goes to the heap (beyond the horizon).
	e.Schedule(target, func() { order = append(order, "heap") })
	// Advance time into the window via an intermediate event.
	e.Schedule(ringSize, func() {
		// Now target-now < ringSize: this lands in the ring with seq 2.
		e.Schedule(target, func() { order = append(order, "ring") })
	})
	e.Run()
	if len(order) != 2 || order[0] != "heap" || order[1] != "ring" {
		t.Fatalf("mixed-lane same-cycle order = %v, want [heap ring]", order)
	}
}

// TestSchedulerRingWrap exercises bucket reuse across many horizons.
func TestSchedulerRingWrap(t *testing.T) {
	e := NewEngine()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < 10*ringSize {
			e.After(1, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if fired != 10*ringSize {
		t.Fatalf("fired %d, want %d", fired, 10*ringSize)
	}
	if e.Now() != Cycle(10*ringSize-1) {
		t.Fatalf("clock at %d after wrap run", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left pending", e.Pending())
	}
}

// TestScheduleStepZeroAllocSteadyState pins the zero-alloc guarantee:
// once bucket slices and the heap have reached their high-water
// capacity, Schedule and Step must not allocate — for plain funcs,
// completion callbacks, and pre-bound handlers alike.
func TestScheduleStepZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	cb := func(Cycle) {}
	h := &countingHandler{}
	// Warm-up: bring every ring bucket and the heap to their high-water
	// capacity (steady state means capacities stop growing, the same
	// condition a long simulation reaches after its first moments).
	for i := 0; i < 16*ringSize; i++ {
		e.Schedule(e.Now()+Cycle(i%ringSize), fn)
	}
	for i := 0; i < 64; i++ {
		e.ScheduleEvent(e.Now()+Cycle(ringSize+i), h, 0)
	}
	e.Run()

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			e.Schedule(e.Now()+Cycle(i%7), fn)
			e.ScheduleCall(e.Now()+Cycle(i%5), cb)
			e.ScheduleEvent(e.Now()+Cycle(ringSize+i), h, uint64(i))
		}
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule/Step allocated %.1f times per run, want 0", allocs)
	}
}

type countingHandler struct{ fired int }

func (c *countingHandler) OnEvent(Cycle, uint64) { c.fired++ }

// TestScheduleEventHandlerTagAndNow verifies pre-bound events receive
// their scheduled cycle and tag.
func TestScheduleEventHandlerTagAndNow(t *testing.T) {
	e := NewEngine()
	var got []struct {
		now Cycle
		tag uint64
	}
	h := handlerFunc(func(now Cycle, tag uint64) {
		got = append(got, struct {
			now Cycle
			tag uint64
		}{now, tag})
	})
	e.ScheduleEvent(5, h, 101)
	e.ScheduleEvent(3, h, 100)
	e.AfterEvent(ringSize*2, h, 102)
	e.Run()
	want := []struct {
		now Cycle
		tag uint64
	}{{3, 100}, {5, 101}, {ringSize * 2, 102}}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

type handlerFunc func(now Cycle, tag uint64)

func (f handlerFunc) OnEvent(now Cycle, tag uint64) { f(now, tag) }

// TestRunUntilBoundary pins the drained-vs-remaining contract exactly at
// the limit cycle: an event AT limit fires (and the clock lands on it);
// an event one past limit does not (and the clock stays put).
func TestRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	e.Schedule(10, func() { fired = append(fired, 10) })
	e.Schedule(11, func() { fired = append(fired, 11) })

	if e.RunUntil(10) {
		t.Fatal("RunUntil(10) claimed the queue drained with cycle-11 work pending")
	}
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("RunUntil(10) fired %v, want [10]", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock at %d after RunUntil(10), want 10 (cycle of last fired event)", e.Now())
	}

	// Nothing in (10, 11): the clock must NOT advance to the probe limit.
	if e.RunUntil(10) {
		t.Fatal("second RunUntil(10) claimed drained")
	}
	if e.Now() != 10 {
		t.Fatalf("clock moved to %d on a no-op RunUntil, want 10", e.Now())
	}

	if !e.RunUntil(11) {
		t.Fatal("RunUntil(11) did not drain")
	}
	if len(fired) != 2 || fired[1] != 11 {
		t.Fatalf("final fired %v, want [10 11]", fired)
	}
	if e.Now() != 11 {
		t.Fatalf("clock at %d after drain, want 11", e.Now())
	}

	// Empty queue: drained, clock untouched even with a far limit.
	if !e.RunUntil(1 << 40) {
		t.Fatal("RunUntil on empty queue reported events remaining")
	}
	if e.Now() != 11 {
		t.Fatalf("clock at %d after empty RunUntil, want 11", e.Now())
	}
}

// --- Scheduler microbenches (their 0 allocs are pinned by
// TestScheduleStepZeroAllocSteadyState) ---

// BenchmarkScheduleNear measures the common case: schedule a few cycles
// ahead, fire, repeat — the ring lane.
func BenchmarkScheduleNear(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+3, fn)
		e.Step()
	}
}

// BenchmarkScheduleFar measures the heap lane: events beyond the ring
// horizon.
func BenchmarkScheduleFar(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// Keep a standing population so the heap has real depth.
	for i := 0; i < 1024; i++ {
		e.Schedule(e.Now()+Cycle(ringSize+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Cycle(ringSize+1+(i&1023)), fn)
		e.Step()
	}
}

// BenchmarkScheduleMixed interleaves ring and heap traffic with
// same-cycle bursts, approximating the timing models' profile.
func BenchmarkScheduleMixed(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	cb := func(Cycle) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, fn)
		e.ScheduleCall(e.Now()+1, cb) // same-cycle tie
		e.Schedule(e.Now()+Cycle(ringSize*2), fn)
		e.Step()
		e.Step()
		e.Step()
	}
}

// BenchmarkScheduleEventPrebound measures the zero-alloc pre-bound
// handler path the timing models use.
func BenchmarkScheduleEventPrebound(b *testing.B) {
	e := NewEngine()
	h := &countingHandler{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(e.Now()+2, h, uint64(i))
		e.Step()
	}
}

// BenchmarkEngineRandom1000 is the legacy whole-queue benchmark shape:
// 1000 random-cycle events scheduled then drained.
func BenchmarkEngineRandom1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cycles := make([]Cycle, 1000)
	for i := range cycles {
		cycles[i] = Cycle(rng.Intn(5000))
	}
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for _, c := range cycles {
			e.Schedule(c, fn)
		}
		e.Run()
	}
}
