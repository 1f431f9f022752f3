// The traffic layer: deterministic request-stream generation, open- and
// closed-loop load specifications with their arrival processes, and the
// shard-task stage that computes per-(plan, shard) service times for the
// virtual-time replay (replay.go) on the sweep engine's bounded worker
// pool.
package serve

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/fault"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/stats"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// StreamSpec declares a mixed request stream: N requests drawn with a
// seeded generator, cycling architectures round-robin (so every mix is
// covered at any N) and drawing the Q06 quantity bound — the
// selectivity knob — per request, which yields the mixed-selectivity
// streams an operator's traffic actually has.
type StreamSpec struct {
	// N is the number of requests.
	N int
	// Seed drives the deterministic draw.
	Seed uint64
	// Archs are the architectures in the mix. Default: all four.
	Archs []query.Arch
	// QtyHi are the Q06 quantity bounds drawn per request (uniformly).
	// Default: {10, 24, 50} — roughly 1%, 2% and 4% selectivity.
	QtyHi []int32
	// Aggregate upgrades HIPE requests (and, through routing, auto
	// requests that resolve to HIPE) to the in-memory aggregation plan
	// (whole Q06 in memory), exercising the revenue merge path.
	Aggregate bool
	// Q1Every, when positive, turns every Q1Every-th request into a
	// TPC-H Q01-style grouped aggregation over Q1Query — a mixed
	// selection/aggregation stream, the traffic shape of a reporting
	// dashboard riding on an operational fleet. Zero keeps the stream
	// pure Q06, bit-identical to streams generated before this knob
	// existed.
	Q1Every int
	// Q1Query is the aggregation predicate (zero value: DefaultQ01).
	Q1Query db.Q01
	// Classes, when above 1, draws each request's admission class
	// uniformly from [0, Classes). The draw uses its own seeded
	// generator, so enabling classes never disturbs which predicates or
	// architectures the stream contains — streams stay bit-identical to
	// their classless form in every other field.
	Classes int
}

// Requests materialises the stream. Malformed specs — a non-positive
// length, a negative cadence or class count, an architecture outside
// the backend table — are rejected up front, never panicked on.
func (s StreamSpec) Requests() ([]Request, error) {
	if s.N <= 0 {
		return nil, fmt.Errorf("serve: stream of %d requests", s.N)
	}
	if s.Q1Every < 0 {
		return nil, fmt.Errorf("serve: negative Q1 cadence %d", s.Q1Every)
	}
	if s.Classes < 0 {
		return nil, fmt.Errorf("serve: negative class count %d", s.Classes)
	}
	archs := s.Archs
	if len(archs) == 0 {
		archs = []query.Arch{query.X86, query.HMC, query.HIVE, query.HIPE}
	}
	for _, a := range archs {
		if _, ok := query.BackendFor(a); !ok && a != query.ArchAuto {
			return nil, fmt.Errorf("serve: architecture %d is not a registered backend", a)
		}
	}
	qtys := s.QtyHi
	if len(qtys) == 0 {
		qtys = []int32{10, 24, 50}
	}
	q1 := s.Q1Query
	if q1 == (db.Q01{}) {
		q1 = db.DefaultQ01()
	}
	r := db.NewRNG(s.Seed)
	// Classes draw from their own decorrelated stream: the main
	// generator's sequence — and therefore every predicate and plan in
	// the stream — is untouched by the class knob.
	cr := db.NewRNG(s.Seed ^ 0x0C1A_55E5_C1A5_5E50)
	reqs := make([]Request, s.N)
	for i := range reqs {
		// The selectivity draw is consumed for every request — Q01
		// positions included — so enabling the aggregation mix never
		// changes which predicates the Q06 positions receive.
		q := db.DefaultQ06()
		q.QtyHi = qtys[r.Intn(int64(len(qtys)))]
		class := 0
		if s.Classes > 1 {
			class = int(cr.Intn(int64(s.Classes)))
		}
		arch := archs[i%len(archs)]
		if s.Q1Every > 0 && (i+1)%s.Q1Every == 0 {
			reqs[i] = Request{Plan: DefaultQ1Plan(arch, q1), Class: class}
			continue
		}
		p := DefaultPlan(arch, q)
		if s.Aggregate && (p.Arch == query.HIPE || p.Auto()) {
			p.Aggregate = true
		}
		reqs[i] = Request{Plan: p, Class: class}
	}
	return reqs, nil
}

// Mode selects the load-generation discipline.
type Mode uint8

const (
	// Open is open-loop load: requests arrive on a seeded deterministic
	// arrival process regardless of completions — the discipline that
	// exposes queueing delay and tail latency under overload.
	Open Mode = iota
	// Closed is closed-loop load: a fixed number of clients each keep
	// exactly one request outstanding — the discipline that measures
	// saturated fleet throughput.
	Closed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Open {
		return "open"
	}
	return "closed"
}

// LoadSpec declares one load test over an admitted request stream.
// Build it with OpenLoop or ClosedLoop.
type LoadSpec struct {
	Requests []Request
	Mode     Mode

	// Open-loop fields.
	// MeanInterarrival is the mean gap between arrivals in simulated
	// cycles; gaps are exponentially distributed (a Poisson process),
	// drawn deterministically from ArrivalSeed.
	MeanInterarrival uint64
	ArrivalSeed      uint64
	// DurationCycles, when non-zero, truncates the stream to requests
	// arriving inside [0, DurationCycles) of simulated time — the
	// "duration in simulated work" bound.
	DurationCycles uint64
	// Trace, when set, replaces the homogeneous Poisson process with a
	// trace-driven non-homogeneous one (diurnal rate modulation plus
	// on/off bursts) — still seeded and exactly replayable. Mutually
	// exclusive with MeanInterarrival; open mode only.
	Trace *TraceSpec

	// Closed-loop field: the fixed client count.
	Concurrency int

	// Fleet admission-control fields. Only Fleet.LoadTest honours them;
	// Cluster.LoadTest rejects specs that set either.
	// Classes declares the per-class latency SLOs and shed patience;
	// request Class values index this table. Empty means one "default"
	// class with no SLO.
	Classes []ClassSpec
	// Shed enables admission control: a request is shed — refused at
	// arrival, not queued — when every candidate replica's backlog
	// exceeds its class's patience. Lower-patience (lower-value) classes
	// shed first under overload. Open mode only.
	Shed bool

	// Fleet fault-injection fields. Only Fleet.LoadTest honours them;
	// Cluster.LoadTest rejects specs that set either.
	// Faults schedules deterministic replica crashes, straggler
	// episodes and transient stalls (nil or zero-valued = fault-free).
	Faults *fault.Spec
	// Recovery declares the request-level recovery policy — timeouts,
	// retries, hedging, failover (nil = none; a faulted run with no
	// recovery degrades on first failure).
	Recovery *RecoverySpec

	// Adaptive enables feedback-driven routing for this load test: each
	// route blends the analytic prior with the observed-cycles EWMA of
	// the candidate's (kind, backend, selectivity-bucket) cell, and
	// completed requests feed their replay cycles back in during the
	// single-threaded virtual-time replay — so adaptive reports stay
	// byte-identical at any worker count. Only Fleet.LoadTest honours
	// it; Cluster.LoadTest rejects specs that set it. Nil keeps routing
	// fully static and exports byte-identical to the pre-adaptive layer.
	Adaptive *cost.AdaptiveConfig
}

// OpenLoop declares an open-loop test: reqs arrive with exponential
// interarrival gaps of the given mean (simulated cycles), generated
// from seed; duration (0 = unlimited) truncates the admitted stream.
func OpenLoop(reqs []Request, meanInterarrival, duration uint64, seed uint64) LoadSpec {
	return LoadSpec{Requests: reqs, Mode: Open,
		MeanInterarrival: meanInterarrival, ArrivalSeed: seed, DurationCycles: duration}
}

// ClosedLoop declares a closed-loop test: concurrency clients drain
// reqs, each keeping one request outstanding with zero think time.
func ClosedLoop(reqs []Request, concurrency int) LoadSpec {
	return LoadSpec{Requests: reqs, Mode: Closed, Concurrency: concurrency}
}

// TraceLoop declares a trace-driven open-loop test: reqs arrive on the
// non-homogeneous process trace describes, generated from seed;
// duration (0 = unlimited) truncates the admitted stream.
func TraceLoop(reqs []Request, trace TraceSpec, duration uint64, seed uint64) LoadSpec {
	t := trace
	return LoadSpec{Requests: reqs, Mode: Open, Trace: &t,
		ArrivalSeed: seed, DurationCycles: duration}
}

// TraceSpec declares a trace-driven, non-homogeneous open-loop arrival
// process: a Poisson process whose instantaneous rate is modulated by a
// diurnal sinusoid and an on/off burst process. Fully seeded — equal
// specs with equal seeds replay the identical arrival timeline, so
// trace runs are replayable and their reports byte-comparable.
type TraceSpec struct {
	// Mean is the base mean interarrival gap in simulated cycles (the
	// rate before modulation).
	Mean uint64
	// DiurnalPeriod is the period of the sinusoidal rate modulation, in
	// cycles. Required when DiurnalAmp is set.
	DiurnalPeriod uint64
	// DiurnalAmp is the sinusoid's amplitude as a fraction of the base
	// rate, in [0, 1): at 0.5 the instantaneous rate swings between
	// 0.5x and 1.5x the base. Zero disables the diurnal component.
	DiurnalAmp float64
	// BurstFactor multiplies the rate while a burst is active (>= 1;
	// zero or one disables bursts).
	BurstFactor float64
	// BurstOn and BurstOff are the mean burst / quiet segment durations
	// in cycles, exponentially distributed. Drawn from a stream
	// decorrelated from the arrival draws, so toggling bursts never
	// changes which unit variates the gaps consume.
	BurstOn  uint64
	BurstOff uint64
}

// validate rejects malformed trace specs.
func (t *TraceSpec) validate() error {
	if t.Mean == 0 {
		return fmt.Errorf("serve: trace mean interarrival must be positive")
	}
	if t.DiurnalAmp < 0 || t.DiurnalAmp >= 1 {
		return fmt.Errorf("serve: diurnal amplitude %g outside [0, 1)", t.DiurnalAmp)
	}
	if t.DiurnalAmp > 0 && t.DiurnalPeriod == 0 {
		return fmt.Errorf("serve: diurnal amplitude needs a period")
	}
	if t.bursting() {
		if t.BurstFactor < 1 {
			return fmt.Errorf("serve: burst factor %g below 1", t.BurstFactor)
		}
		if t.BurstOn == 0 || t.BurstOff == 0 {
			return fmt.Errorf("serve: bursts need positive mean on/off durations")
		}
	}
	return nil
}

// bursting reports whether the burst component is enabled.
func (t *TraceSpec) bursting() bool {
	return t.BurstFactor != 0 && t.BurstFactor != 1
}

// gap draws the next interarrival gap at virtual time now: an
// exponential draw whose mean is the base mean divided by the
// instantaneous rate multiplier (diurnal x burst).
func (t *TraceSpec) gap(r *db.RNG, burst *burstProcess, now uint64) uint64 {
	rate := 1.0
	if t.DiurnalAmp > 0 {
		phase := float64(now%t.DiurnalPeriod) / float64(t.DiurnalPeriod)
		rate *= 1 + t.DiurnalAmp*math.Sin(2*math.Pi*phase)
	}
	if burst != nil && burst.active(now) {
		rate *= t.BurstFactor
	}
	return r.ExpGap(float64(t.Mean) / rate)
}

// burstProcess is a seeded on/off renewal process: alternating quiet
// and burst segments with exponential lengths, starting quiet.
type burstProcess struct {
	spec *TraceSpec
	r    *db.RNG
	// next is the virtual time the current segment ends; on is whether
	// that segment is a burst.
	next uint64
	on   bool
}

func newBurstProcess(t *TraceSpec, seed uint64) *burstProcess {
	b := &burstProcess{spec: t, r: db.NewRNG(seed ^ 0xB125_7B12_57B1_257B)}
	b.next = b.segment(t.BurstOff)
	return b
}

// segment draws one exponential segment length; the +1 keeps every
// segment strictly advancing the clock, so active never loops forever.
func (b *burstProcess) segment(mean uint64) uint64 {
	return b.r.ExpGap(float64(mean)) + 1
}

// active reports whether time now falls inside a burst, advancing
// segment boundaries as needed. Callers present non-decreasing times.
func (b *burstProcess) active(now uint64) bool {
	for now >= b.next {
		b.on = !b.on
		if b.on {
			b.next += b.segment(b.spec.BurstOn)
		} else {
			b.next += b.segment(b.spec.BurstOff)
		}
	}
	return b.on
}

// validate rejects malformed specs before any simulation runs.
func (s LoadSpec) validate() error {
	if len(s.Requests) == 0 {
		return fmt.Errorf("serve: load spec has no requests")
	}
	switch s.Mode {
	case Open:
		if s.Trace != nil {
			if s.MeanInterarrival != 0 {
				return fmt.Errorf("serve: trace arrivals and a mean interarrival are mutually exclusive")
			}
			if err := s.Trace.validate(); err != nil {
				return err
			}
		} else if s.MeanInterarrival == 0 {
			return fmt.Errorf("serve: open-loop mean interarrival must be positive")
		}
	case Closed:
		if s.Concurrency <= 0 {
			return fmt.Errorf("serve: closed-loop concurrency %d must be positive", s.Concurrency)
		}
		if s.Trace != nil {
			return fmt.Errorf("serve: trace arrivals need open-loop mode")
		}
	default:
		return fmt.Errorf("serve: unknown load mode %d", s.Mode)
	}
	if s.Shed {
		if s.Mode != Open {
			return fmt.Errorf("serve: shedding needs open-loop mode")
		}
		if len(s.Classes) == 0 {
			return fmt.Errorf("serve: shedding needs declared admission classes")
		}
	}
	for i, cs := range s.Classes {
		if cs.Name == "" {
			return fmt.Errorf("serve: class %d has no name", i)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if err := s.Recovery.validate(); err != nil {
		return err
	}
	if s.Adaptive != nil {
		if err := s.Adaptive.Validate(); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	return nil
}

// arrivals materialises the open-loop arrival times and the admitted
// request count (requests past DurationCycles are dropped).
func (s LoadSpec) arrivals() []uint64 {
	r := db.NewRNG(s.ArrivalSeed)
	var burst *burstProcess
	if s.Trace != nil && s.Trace.bursting() {
		burst = newBurstProcess(s.Trace, s.ArrivalSeed)
	}
	times := make([]uint64, 0, len(s.Requests))
	var now uint64
	for range s.Requests {
		var gap uint64
		if s.Trace != nil {
			gap = s.Trace.gap(r, burst, now)
		} else {
			// Exponential gap, quantised to whole cycles.
			gap = r.ExpGap(float64(s.MeanInterarrival))
		}
		now += gap
		if s.DurationCycles > 0 && now >= s.DurationCycles {
			break
		}
		times = append(times, now)
	}
	return times
}

// LoadTest runs the load spec against the cluster: the one serving
// replay with a single pool that can run every backend. It
// admits the stream — routing ArchAuto requests to their
// predicted-fastest backend first — computes every distinct (plan,
// shard) service time on the bounded executor pool (an exact one only
// if the cluster has not verified it before, runPlanSet), verifies every
// merged answer against the unsharded reference evaluator, replays the
// serving timeline in virtual time, and returns the report.
// Deterministic at any worker count (routing happens once,
// single-threaded, before any worker runs, and decisions are pure
// functions of the served table). Admission classes, shedding, faults,
// recovery and adaptive routing need a replicated Fleet.
func (c *Cluster) LoadTest(spec LoadSpec, opt Options) (*Report, error) {
	if len(spec.Classes) > 0 || spec.Shed {
		return nil, fmt.Errorf("serve: admission classes need a replicated fleet (use Fleet.LoadTest)")
	}
	if spec.Faults != nil || spec.Recovery != nil {
		return nil, fmt.Errorf("serve: fault injection and recovery need a replicated fleet (use Fleet.LoadTest)")
	}
	if spec.Adaptive != nil {
		return nil, fmt.Errorf("serve: adaptive routing needs a replicated fleet (use Fleet.LoadTest)")
	}
	pr := c.costParams()
	return c.loadTest(spec, opt, pr, nil, func(req Request) ([]candidate, *cost.Decision, error) {
		r, d, err := c.resolve(req, pr)
		if err != nil {
			return nil, nil, err
		}
		if err := c.Admit(r); err != nil {
			return nil, nil, err
		}
		return []candidate{{plan: r.Plan}}, d, nil
	})
}

// runPlanSet computes the per-shard partials for a set of distinct
// plans, one leg (sweep.Leg) per (plan, shard) under opt's execution
// mode and cost-model snapshot pr, on the sweep engine's worker pool
// (sweep.ForEach). Identical plans over the same shard are bit-identical
// legs, so mixed streams — which repeat a small set of plans — dedupe to
// far fewer legs than (requests × shards), and an exact leg the cluster
// has verified before is served from its memo (Cluster.legs) without
// running at all. The returned slice is indexed [plan][shard], in the
// caller's plan order; results are slot-indexed so worker scheduling
// cannot leak into them, every partial is the caller's own (a memo hit
// is a clone), and the returned error is the first failure in (plan,
// shard) order. This is the compute stage under every load test (one
// plan per distinct routing candidate) and under Cluster.Query (one
// plan).
func (c *Cluster) runPlanSet(plans []query.Plan, opt Options, pr cost.Params) ([][]ShardPartial, error) {
	leg := sweep.Leg{Config: c.cfg, Params: pr, Exec: opt.Exec, Counters: opt.Counters}
	exact := opt.Exec == sweep.ExecExact
	nShards := len(c.shards)
	results := make([]ShardPartial, len(plans)*nShards)
	key := func(t int) legKey {
		return legKey{plan: plans[t/nShards], shard: t % nShards, counters: opt.Counters}
	}
	// Only the legs the memo cannot serve run: estimate legs price from
	// pr, which Calibrate replaces, so they always run.
	var todo []int
	c.mu.Lock()
	for t := range results {
		if sp, ok := c.legs[key(t)]; ok && exact {
			results[t] = sp.clone()
		} else {
			todo = append(todo, t)
		}
	}
	c.mu.Unlock()
	errs := make([]error, len(results))
	var progressMu sync.Mutex
	completed := 0
	sweep.ForEach(len(todo), opt.EffectiveWorkers(), func(i int) {
		t := todo[i]
		s, p := t%nShards, plans[t/nShards]
		part, err := leg.Run(c.shards[s], p)
		if err == nil {
			// The shard reference answers in either mode: an exact leg
			// has verified its machine against that same reference.
			a := c.answer(c.shards[s], p)
			part.Groups = slices.Clone(a.groups)
			results[t] = ShardPartial{Shard: s, Partial: part, Matches: a.matches, Revenue: a.revenue}
			if exact {
				// Concurrent first callers may both run this leg; it is a
				// pure function of its key, so either store is right.
				c.mu.Lock()
				c.legs[key(t)] = results[t].clone()
				c.mu.Unlock()
			}
		}
		errs[t] = err
		if opt.OnTask != nil {
			progressMu.Lock()
			completed++
			opt.OnTask(completed, len(todo))
			progressMu.Unlock()
		}
	})

	out := make([][]ShardPartial, len(plans))
	for pi := range plans {
		for s := 0; s < nShards; s++ {
			if err := errs[pi*nShards+s]; err != nil {
				return nil, fmt.Errorf("serve: plan %d shard %d: %w", pi, s, err)
			}
		}
		out[pi] = results[pi*nShards : (pi+1)*nShards : (pi+1)*nShards]
	}
	return out, nil
}

func newShardStats(n int) []ShardStats {
	out := make([]ShardStats, n)
	for i := range out {
		out[i].Shard = i
	}
	return out
}

// finish derives the aggregate figures from the per-request traces, the
// replay's per-(pool, shard) load accounting and its class rows: a
// cluster reports its one pool's shards, a fleet rolls each pool's
// shards up (its utilisation denominator is makespan x shards) and adds
// the per-class rows.
func (r *Report) finish(lanes [][]ShardStats, accums []classAccum) {
	var hist stats.LogHist
	for _, tr := range r.Requests {
		hist.Observe(tr.Latency)
		if tr.Completion > r.MakespanCycles {
			r.MakespanCycles = tr.Completion
		}
	}
	r.Completed = len(r.Requests)
	r.LatencyP50 = hist.Quantile(0.50)
	r.LatencyP95 = hist.Quantile(0.95)
	r.LatencyP99 = hist.Quantile(0.99)
	r.LatencyMean = hist.Mean()
	r.LatencyMax = hist.Max()
	if r.HasFleet() {
		for p := range r.Pools {
			for _, l := range lanes[p] {
				r.Pools[p].Tasks += l.Tasks
				r.Pools[p].BusyCycles += l.BusyCycles
			}
		}
		for i := range accums {
			r.Classes = append(r.Classes, accums[i].finish(r.HasFaults()))
		}
	} else {
		r.PerShard = lanes[0]
	}
	if r.MakespanCycles > 0 {
		r.ThroughputRPMC = float64(r.Completed) / (float64(r.MakespanCycles) / 1e6)
		for i := range r.PerShard {
			r.PerShard[i].Utilisation = float64(r.PerShard[i].BusyCycles) / float64(r.MakespanCycles)
		}
		denom := float64(r.MakespanCycles) * float64(r.Shards)
		for i := range r.Pools {
			r.Pools[i].Utilisation = float64(r.Pools[i].BusyCycles) / denom
		}
	}
}
