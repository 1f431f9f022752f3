package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	if got := e.Run(); got != 0 {
		t.Fatalf("empty run ended at cycle %d, want 0", got)
	}
	if e.Step() {
		t.Fatal("Step on empty engine reported an event")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(5, func() { order = append(order, 0) })
	e.Schedule(10, func() { order = append(order, 2) }) // FIFO at same cycle
	e.Schedule(20, func() { order = append(order, 3) })
	end := e.Run()
	if end != 20 {
		t.Fatalf("run ended at %d, want 20", end)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("events fired out of order: %v", order)
		}
	}
}

func TestEngineSameCycleFIFOUnderLoad(t *testing.T) {
	e := NewEngine()
	const n = 1000
	var got []int
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(7, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if i != v {
			t.Fatalf("same-cycle events reordered at %d: got %d", i, v)
		}
	}
}

func TestEngineSchedulingFromEvent(t *testing.T) {
	e := NewEngine()
	var hits []Cycle
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.After(4, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 5 {
		t.Fatalf("nested scheduling produced %v, want [1 5]", hits)
	}
}

func TestEnginePastSchedulePanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(3, func() {})
	})
	e.Run()
}

func TestEngineNilEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	e.Schedule(0, nil)
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	for _, c := range []Cycle{2, 4, 6, 8} {
		c := c
		e.Schedule(c, func() { fired = append(fired, c) })
	}
	if e.RunUntil(5) {
		t.Fatal("RunUntil(5) claimed the queue drained")
	}
	if len(fired) != 2 {
		t.Fatalf("RunUntil(5) fired %v", fired)
	}
	if !e.RunUntil(100) {
		t.Fatal("RunUntil(100) did not drain")
	}
	if len(fired) != 4 {
		t.Fatalf("final fired %v", fired)
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		e.After(1, reschedule)
	}
	e.After(0, reschedule)
	fired := e.RunLimit(50)
	if fired != 50 || count != 50 {
		t.Fatalf("RunLimit fired %d (count %d), want 50", fired, count)
	}
}

// Property: for any multiset of scheduled cycles, events fire in
// non-decreasing cycle order and the engine clock equals the max cycle.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(cycles []uint16) bool {
		e := NewEngine()
		var fired []Cycle
		for _, c := range cycles {
			c := Cycle(c)
			e.Schedule(c, func() { fired = append(fired, c) })
		}
		end := e.Run()
		var max Cycle
		prev := Cycle(0)
		for _, c := range fired {
			if c < prev {
				return false
			}
			prev = c
			if c > max {
				max = c
			}
		}
		if len(cycles) == 0 {
			return end == 0
		}
		return end == max && len(fired) == len(cycles)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClockDomain(t *testing.T) {
	e := NewEngine()
	ticks := 0
	td := &countdownTicker{n: 5, hit: func() { ticks++ }}
	d := NewClockDomain(e, 3, td)
	d.Kick()
	d.Kick() // redundant kick must be harmless
	e.Run()
	if ticks != 5 {
		t.Fatalf("ticker ran %d times, want 5", ticks)
	}
	if e.Now() != 12 { // ticks at 0,3,6,9,12
		t.Fatalf("domain finished at %d, want 12", e.Now())
	}
	if d.Running() {
		t.Fatal("domain still marked running after drain")
	}
	// Kick again: ticker is exhausted, should run once more and stop.
	td.n = 2
	d.Kick()
	e.Run()
	if ticks != 7 {
		t.Fatalf("restarted ticker total %d, want 7", ticks)
	}
}

type countdownTicker struct {
	n   int
	hit func()
}

func (c *countdownTicker) Tick(now Cycle) TickResult {
	c.hit()
	c.n--
	if c.n > 0 {
		return Busy
	}
	return Idle
}

func (c *countdownTicker) Deadline(Cycle) Cycle { return NoDeadline }
func (c *countdownTicker) Credit(uint64)        {}

func TestClockDomainZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	NewClockDomain(NewEngine(), 0, &countdownTicker{})
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Cycle(rng.Intn(5000)), func() {})
		}
		e.Run()
	}
}

func TestEngineStatsAccounting(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	e.Schedule(0, nop)     // ring lane
	e.Schedule(10, nop)    // ring lane
	e.Schedule(1<<20, nop) // far future: heap lane
	got := e.Stats()
	want := Stats{Scheduled: 3, Executed: 0, RingEvents: 2, HeapEvents: 1}
	if got != want {
		t.Fatalf("Stats before run = %+v, want %+v", got, want)
	}
	e.Run()
	got = e.Stats()
	if got.Executed != 3 || got.Scheduled != 3 {
		t.Fatalf("Stats after run = %+v", got)
	}
	e.Reset()
	if e.Stats() != (Stats{}) {
		t.Fatalf("Stats after Reset = %+v, want zero", e.Stats())
	}
}
