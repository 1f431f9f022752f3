package sim

// TickResult is what one Tick reports to its clock domain.
type TickResult uint8

const (
	// Idle means the ticker has no work: the domain stops until Kick.
	Idle TickResult = iota
	// Busy means the tick changed model state: the domain ticks again
	// on its next edge.
	Busy
	// Stalled means the tick changed nothing but counters, and would
	// repeat exactly, with the same counter deltas, until another event
	// fires or the ticker's deadline arrives. The domain parks.
	Stalled
)

// NoDeadline is the deadline of a stalled ticker that only another
// event can unblock.
const NoDeadline = ^Cycle(0)

// Ticker is a component that wants to be stepped at a fixed cadence while
// it has work outstanding. It is a convenience layer over the raw event
// queue used by pipelined models (the OoO core, the HIVE/HIPE sequencers)
// that are most naturally written as "advance one cycle" loops.
//
// A tick that reports Stalled makes a promise the engine relies on to
// skip the ticks that would repeat it: the tick scheduled no event and
// changed no state other than counters, and until another event fires
// or Deadline passes, every further tick would do exactly the same.
type Ticker interface {
	// Tick advances the component to the given cycle.
	Tick(now Cycle) TickResult
	// Deadline reports, after a Stalled tick at now, the first cycle
	// at which a tick could progress or count differently without
	// another event firing first; NoDeadline if there is none.
	Deadline(now Cycle) Cycle
	// Credit adds n times the last Stalled tick's counter deltas: the
	// counts of n ticks the engine skipped instead of firing.
	Credit(n uint64)
}

// ClockDomain drives a Ticker every Period cycles while it reports work.
// When the ticker goes idle the domain stops scheduling; Kick restarts
// it on the next edge of its clock grid (a slower domain does not
// overclock just because work arrives between its edges).
//
// When the ticker stalls, the domain parks instead of queueing its next
// tick: the engine holds that tick's (cycle, sequence) slot, fires it
// for real if any other event fires first, and otherwise skips and
// credits the stalled ticks (see Engine.Step).
type ClockDomain struct {
	Engine *Engine
	Period Cycle
	T      Ticker

	running    bool
	everTicked bool
	lastTick   Cycle

	// While parked: the reserved next tick's slot, the engine activity
	// when the domain parked, and the ticker's deadline. skip is the
	// number of ticks an in-progress Engine skip credits.
	next     Cycle
	seq      uint64
	mark     uint64
	deadline Cycle
	skip     uint64
}

// NewClockDomain couples t to engine at the given period (>= 1).
func NewClockDomain(engine *Engine, period Cycle, t Ticker) *ClockDomain {
	if period == 0 {
		panic("sim: clock domain period must be >= 1")
	}
	return &ClockDomain{Engine: engine, Period: period, T: t}
}

// Kick ensures the domain is scheduled. Safe to call redundantly; extra
// calls while running (parked included) are no-ops. A restart lands on
// the domain's next clock edge relative to its previous tick.
func (d *ClockDomain) Kick() {
	if d.running {
		return
	}
	d.running = true
	var delay Cycle
	if d.everTicked {
		now := d.Engine.Now()
		elapsed := now - d.lastTick
		if elapsed < d.Period {
			delay = d.Period - elapsed
		} else if rem := elapsed % d.Period; rem != 0 {
			delay = d.Period - rem
		}
	}
	d.Engine.AfterEvent(delay, d, 0)
}

// OnEvent implements Handler: the domain is its own pre-bound tick
// event, so ticking never allocates (a method value per tick would).
func (d *ClockDomain) OnEvent(now Cycle, _ uint64) {
	d.everTicked = true
	d.lastTick = now
	switch d.T.Tick(now) {
	case Busy:
		d.Engine.AfterEvent(d.Period, d, 0)
	case Stalled:
		d.Engine.park(d, now)
	default:
		d.running = false
	}
}

// slotBefore orders two parked domains' reserved ticks.
func (d *ClockDomain) slotBefore(o *ClockDomain) bool {
	return d.next < o.next || d.next == o.next && d.seq < o.seq
}

// lastSkipped is the cycle of the last tick an in-progress skip credits.
func (d *ClockDomain) lastSkipped() Cycle { return d.next + Cycle(d.skip-1)*d.Period }

// landsBefore orders two skipping domains' landed ticks as
// tick-every-cycle would have queued them: in the firing order of their
// last skipped ticks. Those fire by cycle. At one cycle, the domain
// whose reserved tick is later goes first — from there on its ticks
// were queued before the other's skipped ones — and equal reserved
// cycles keep their sequence order. (Domains of different periods
// sharing a last skipped cycle land on different cycles, so their order
// is moot.)
func (d *ClockDomain) landsBefore(o *ClockDomain) bool {
	if a, b := d.lastSkipped(), o.lastSkipped(); a != b {
		return a < b
	}
	if d.next != o.next {
		return d.next > o.next
	}
	return d.seq < o.seq
}

// Running reports whether the domain currently has a tick scheduled or
// reserved.
func (d *ClockDomain) Running() bool { return d.running }

// Reset returns the domain to its never-ticked state. The owning
// component calls it as part of a machine reset, after the engine's own
// Reset dropped any scheduled or reserved tick.
func (d *ClockDomain) Reset() {
	*d = ClockDomain{Engine: d.Engine, Period: d.Period, T: d.T}
}
