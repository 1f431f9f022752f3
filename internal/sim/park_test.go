package sim

// Tests for parked clock domains: a randomized equivalence property
// against the tick-every-cycle clock domain that parking replaced, the
// exact crediting of RunUntil's skips, the panic when nothing can wake
// the parked domains, and the zero-alloc park → skip → wake cycle.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refDomain is the tick-every-cycle reference: it re-arms every period
// while its ticker has work, stalled or not, so it fires every stalled
// tick that parking skips. Kick is ClockDomain's.
type refDomain struct {
	e          *Engine
	period     Cycle
	t          Ticker
	running    bool
	everTicked bool
	lastTick   Cycle
}

func (d *refDomain) Kick() {
	if d.running {
		return
	}
	d.running = true
	var delay Cycle
	if d.everTicked {
		elapsed := d.e.Now() - d.lastTick
		if elapsed < d.period {
			delay = d.period - elapsed
		} else if rem := elapsed % d.period; rem != 0 {
			delay = d.period - rem
		}
	}
	d.e.AfterEvent(delay, d, 0)
}

func (d *refDomain) OnEvent(now Cycle, _ uint64) {
	d.everTicked, d.lastTick = true, now
	if d.t.Tick(now) == Idle {
		d.running = false
		return
	}
	d.e.AfterEvent(d.period, d, 0)
}

// world is one random scenario: tickers that progress, stall with
// counter deltas, wait on deadlines and go idle, plus outside events
// that block, unblock, delay and refill them. The random stream is drawn
// only by outside events and working ticks, so a scheduler that fires
// those in the same order replays the same scenario.
type world struct {
	e       *Engine
	rng     *rand.Rand
	tickers []*scriptTicker
	log     []string
	budget  int // spawned events and work items left
	spawned int
}

func (w *world) record(kind string, id int, now Cycle) {
	w.log = append(w.log, fmt.Sprintf("%s%d@%d", kind, id, now))
}

// act applies one random consequence of a working tick or an outside
// event at now.
func (w *world) act(now Cycle, self *scriptTicker) {
	if w.budget <= 0 {
		return
	}
	w.budget--
	t := w.tickers[w.rng.Intn(len(w.tickers))]
	switch w.rng.Intn(6) {
	case 0: // an outside event at, just after, or well after now
		delay := Cycle(w.rng.Intn(4))
		if w.rng.Intn(2) == 0 {
			delay = Cycle(w.rng.Intn(40))
		}
		w.spawn(now + delay)
	case 1: // refill a ticker, restarting it if idle
		t.work += 1 + w.rng.Intn(4)
		t.dom.Kick()
	case 2: // block a ticker until a later outside event unblocks it
		t.blocked = true
		w.e.Schedule(now+1+Cycle(w.rng.Intn(30)), func() {
			w.record("u", t.id, w.e.Now())
			t.blocked = false
		})
	case 3: // a deadline: the ticker waits a few cycles by itself
		t.readyAt = now + 1 + Cycle(w.rng.Intn(6))
	case 4: // a zero-delay outside event
		w.spawn(now)
	default:
		if self != nil {
			self.readyAt = now + Cycle(w.rng.Intn(3))
		}
	}
}

// spawn schedules an outside event that records itself and acts.
func (w *world) spawn(at Cycle) {
	w.spawned++
	id := w.spawned
	w.e.Schedule(at, func() {
		w.record("o", id, w.e.Now())
		w.act(w.e.Now(), nil)
	})
}

type kicker interface{ Kick() }

// scriptTicker keeps the Stalled contract: a stalled tick changes only
// its counters, by the same deltas until an event fires or readyAt.
type scriptTicker struct {
	w       *world
	id      int
	dom     kicker
	work    int
	blocked bool
	readyAt Cycle
	weight  uint64 // blocked-stall count per stalled tick

	ticks, blockedStalls, waitStalls uint64
	lastBlocked, lastWait            uint64
}

func (t *scriptTicker) Tick(now Cycle) TickResult {
	t.ticks++
	t.lastBlocked, t.lastWait = 0, 0
	switch {
	case t.work == 0:
		t.w.record("i", t.id, now)
		return Idle
	case t.blocked:
		t.lastBlocked = t.weight
		t.blockedStalls += t.weight
		return Stalled
	case now < t.readyAt:
		t.lastWait = 1
		t.waitStalls++
		return Stalled
	}
	t.work--
	t.w.record("t", t.id, now)
	t.w.act(now, t)
	return Busy
}

func (t *scriptTicker) Deadline(now Cycle) Cycle {
	if !t.blocked && t.readyAt > now {
		return t.readyAt
	}
	return NoDeadline
}

func (t *scriptTicker) Credit(n uint64) {
	t.ticks += n
	t.blockedStalls += n * t.lastBlocked
	t.waitStalls += n * t.lastWait
}

// scenario runs one seeded scenario under parking or tick-every-cycle
// domains and returns its firing log, counters and event count.
func scenario(seed int64, park bool) (log []string, counters string, fired uint64) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	w := &world{e: e, rng: rng, budget: 60 + rng.Intn(120)}
	n := 2 + rng.Intn(2)
	for i := 0; i < n; i++ {
		t := &scriptTicker{w: w, id: i, work: rng.Intn(6), weight: 1 + uint64(rng.Intn(3))}
		period := Cycle(1 + rng.Intn(2))
		if park {
			t.dom = NewClockDomain(e, period, t)
		} else {
			t.dom = &refDomain{e: e, period: period, t: t}
		}
		w.tickers = append(w.tickers, t)
	}
	for _, t := range w.tickers {
		if rng.Intn(3) > 0 {
			t.dom.Kick()
		}
	}
	for i := 0; i < 1+rng.Intn(5); i++ {
		w.spawn(Cycle(rng.Intn(20)))
	}
	end := e.Run()
	var b strings.Builder
	for _, t := range w.tickers {
		fmt.Fprintf(&b, "t%d ticks=%d blocked=%d wait=%d; ", t.id, t.ticks, t.blockedStalls, t.waitStalls)
	}
	fmt.Fprintf(&b, "end=%d", end)
	return w.log, b.String(), e.Executed()
}

// TestParkingMatchesTickEveryCycle replays random scenarios — 2–3
// domains of periods 1 and 2, tickers that progress, stall with counter
// deltas, wait on deadlines and go idle, Kick after idle, and outside
// events before, at and after tick cycles, zero-delay ones scheduled
// from inside ticks included — under parking and under the reference,
// and demands the same firing order of every working tick and outside
// event and the same counter totals.
func TestParkingMatchesTickEveryCycle(t *testing.T) {
	var refFired, parkFired uint64
	for seed := int64(0); seed < 400; seed++ {
		refLog, refCounters, rf := scenario(seed, false)
		parkLog, parkCounters, pf := scenario(seed, true)
		refFired += rf
		parkFired += pf
		for i := range refLog {
			if i >= len(parkLog) || parkLog[i] != refLog[i] {
				lo := max(0, i-5)
				t.Fatalf("seed %d: firing order diverges at %d:\nparking   %v\nreference %v",
					seed, i, parkLog[lo:min(i+1, len(parkLog))], refLog[lo:i+1])
			}
		}
		if len(parkLog) != len(refLog) {
			t.Fatalf("seed %d: parking logged %d events, reference %d", seed, len(parkLog), len(refLog))
		}
		if parkCounters != refCounters {
			t.Fatalf("seed %d: counters diverge:\nparking   %s\nreference %s", seed, parkCounters, refCounters)
		}
	}
	if parkFired >= refFired {
		t.Fatalf("parking fired %d events, reference %d: nothing was skipped", parkFired, refFired)
	}
}

// stuckTicker stalls forever with no deadline.
type stuckTicker struct{ ticks uint64 }

func (s *stuckTicker) Tick(Cycle) TickResult { s.ticks++; return Stalled }
func (s *stuckTicker) Deadline(Cycle) Cycle  { return NoDeadline }
func (s *stuckTicker) Credit(n uint64)       { s.ticks += n }

// TestRunUntilCreditsParkedTicks pins RunUntil's horizon and the joint
// skip: it skips and credits exactly the stalled ticks at cycles <=
// limit, fires none of them, leaves the clock on the last of them, and
// keeps the domains parked.
func TestRunUntilCreditsParkedTicks(t *testing.T) {
	e := NewEngine()
	a, b := &stuckTicker{}, &stuckTicker{}
	NewClockDomain(e, 1, a).Kick()
	NewClockDomain(e, 2, b).Kick()
	if e.RunUntil(100) {
		t.Fatal("RunUntil(100) claimed the queue drained with two parked domains")
	}
	if a.ticks != 101 || b.ticks != 51 {
		t.Fatalf("ticks through cycle 100: %d and %d, want 101 and 51", a.ticks, b.ticks)
	}
	if e.Now() != 100 {
		t.Fatalf("clock at %d after RunUntil(100), want 100", e.Now())
	}
	// Each domain fired only its first tick: the two clean domains skip
	// together, neither bounding the other's skip.
	if e.Executed() != 2 {
		t.Fatalf("%d ticks fired, want 2", e.Executed())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want the 2 parked ticks", e.Pending())
	}
}

// TestParkedDomainsWithNothingToWakeThemPanic: every domain parked,
// nothing queued and no deadline would tick forever under
// tick-every-cycle. The engine refuses with a message instead.
func TestParkedDomainsWithNothingToWakeThemPanic(t *testing.T) {
	e := NewEngine()
	NewClockDomain(e, 1, &stuckTicker{}).Kick()
	NewClockDomain(e, 2, &stuckTicker{}).Kick()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "nothing can wake them") {
			t.Fatalf("Run with every domain stuck: recovered %q, want the no-wake panic", msg)
		}
	}()
	e.Run()
}

// gateTicker stalls while shut and works through its items once its
// own pre-bound event opens it, then goes idle.
type gateTicker struct {
	shut         bool
	work         int
	ticks, fired uint64
}

func (g *gateTicker) Tick(Cycle) TickResult {
	g.ticks++
	g.fired++
	switch {
	case g.work == 0:
		return Idle
	case g.shut:
		return Stalled
	}
	g.work--
	return Busy
}
func (g *gateTicker) Deadline(Cycle) Cycle  { return NoDeadline }
func (g *gateTicker) Credit(n uint64)       { g.ticks += n }
func (g *gateTicker) OnEvent(Cycle, uint64) { g.shut = false }

// TestParkSkipWakeZeroAlloc pins that parking, the joint skip and the
// wake allocate nothing once the parked list has its capacity.
func TestParkSkipWakeZeroAlloc(t *testing.T) {
	e := NewEngine()
	gates := []*gateTicker{{}, {}}
	doms := []*ClockDomain{NewClockDomain(e, 1, gates[0]), NewClockDomain(e, 2, gates[1])}
	round := func() {
		for i, g := range gates {
			g.shut, g.work = true, 2
			doms[i].Kick()
			e.AfterEvent(Cycle(40+7*i), g, 0)
		}
		e.Run()
	}
	// Warm-up: every ring bucket and the parked list reach capacity.
	for i := 0; i < 16*ringSize; i++ {
		e.Schedule(e.Now()+Cycle(i%ringSize), func() {})
	}
	e.Run()
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("park/skip/wake allocated %.1f times per round, want 0", allocs)
	}
	for i, g := range gates {
		if g.ticks <= g.fired {
			t.Fatalf("gate %d: %d ticks counted, %d fired: no tick was skipped", i, g.ticks, g.fired)
		}
	}
}
