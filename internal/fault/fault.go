// Package fault is the deterministic fault-injection layer of the
// serving fleet: a seeded specification of replica crashes (with later
// recovery), per-shard straggler slowdowns and transient stalls, and an
// Injector that answers point-in-virtual-time health queries during the
// fleet's single-threaded timeline replay.
//
// Determinism is the whole design. Every stochastic component draws
// from its own decorrelated RNG stream — one per pool for crashes, one
// per (pool, shard) for stragglers and stalls — derived from Spec.Seed
// exactly the way StreamSpec.Classes decorrelates class draws, so
// enabling faults never disturbs which predicates, plans or arrival
// times a load test contains: plan streams stay byte-identical.
// Schedules are materialised lazily but append-only per stream, so the
// state at cycle t is a pure function of (Spec, geometry, t) no matter
// in which order queries arrive. The replay that issues the queries is
// single-threaded, hence faulted reports stay byte-identical at any
// executor worker count.
//
// The zero Spec and the nil (or zero) Injector mean "perfectly healthy
// fleet": every query short-circuits without touching memory, which is
// what lets the serving layer keep its zero-alloc replay gates when no
// faults are configured.
package fault

import (
	"fmt"
	"math"
	"sort"

	"github.com/hipe-sim/hipe/internal/db"
)

// Crash is one scheduled replica-pool outage: pool goes down at cycle
// At and recovers Down cycles later. Scheduled crashes compose with the
// stochastic crash process — tests and demos pin a mid-run outage while
// background faults keep arriving.
type Crash struct {
	// Pool is the replica pool index the outage hits.
	Pool int
	// At is the virtual cycle the pool goes down.
	At uint64
	// Down is the outage duration in cycles (must be positive).
	Down uint64
}

// Spec declares a deterministic fault schedule. The zero value injects
// nothing. All durations are virtual (simulated) cycles; all stochastic
// components are exponential renewal processes seeded from Seed.
type Spec struct {
	// Seed derives every fault stream. Two equal specs replay the
	// identical fault timeline.
	Seed uint64

	// CrashEvery is the mean up-time between stochastic crashes of one
	// replica pool (0 disables stochastic crashes); CrashDown is the
	// mean outage duration before the pool recovers.
	CrashEvery uint64
	CrashDown  uint64

	// StraggleEvery is the mean healthy time between straggler episodes
	// of one (pool, shard) pair (0 disables); StraggleFor the mean
	// episode duration; StraggleFactor the multiplicative service-cycle
	// inflation while the episode lasts (> 1).
	StraggleEvery  uint64
	StraggleFor    uint64
	StraggleFactor float64

	// StallEvery is the mean quiet time between transient stalls of one
	// (pool, shard) pair (0 disables); StallFor the mean stall duration;
	// StallMax a hard per-stall bound (0 defaults to 4 x StallFor), so
	// every stall is of bounded duration by construction.
	StallEvery uint64
	StallFor   uint64
	StallMax   uint64

	// Crashes are scheduled outages, validated against the fleet's pool
	// count when the injector is built.
	Crashes []Crash
}

// Enabled reports whether the spec injects any fault at all.
func (s *Spec) Enabled() bool {
	if s == nil {
		return false
	}
	return s.CrashEvery > 0 || s.StraggleEvery > 0 || s.StallEvery > 0 || len(s.Crashes) > 0
}

// Validate rejects malformed specs: NaN/Inf/negative knobs, incomplete
// component declarations, and non-positive scheduled outages. Pool
// bounds of scheduled crashes are checked by New, which knows the
// fleet geometry.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.CrashEvery > 0 && s.CrashDown == 0 {
		return fmt.Errorf("fault: crash process needs a positive mean outage duration")
	}
	if s.CrashEvery == 0 && s.CrashDown > 0 {
		return fmt.Errorf("fault: crash outage duration set without a crash rate")
	}
	if s.StraggleEvery > 0 {
		if s.StraggleFor == 0 {
			return fmt.Errorf("fault: straggler process needs a positive mean episode duration")
		}
		if math.IsNaN(s.StraggleFactor) || math.IsInf(s.StraggleFactor, 0) || s.StraggleFactor <= 1 {
			return fmt.Errorf("fault: straggler factor %g must be a finite multiplier > 1", s.StraggleFactor)
		}
	} else if s.StraggleFor > 0 || s.StraggleFactor != 0 {
		return fmt.Errorf("fault: straggler knobs set without a straggler rate")
	}
	if s.StallEvery > 0 {
		if s.StallFor == 0 {
			return fmt.Errorf("fault: stall process needs a positive mean duration")
		}
		if s.StallMax > 0 && s.StallMax < s.StallFor {
			return fmt.Errorf("fault: stall bound %d below the mean duration %d", s.StallMax, s.StallFor)
		}
	} else if s.StallFor > 0 || s.StallMax > 0 {
		return fmt.Errorf("fault: stall knobs set without a stall rate")
	}
	for i, c := range s.Crashes {
		if c.Pool < 0 {
			return fmt.Errorf("fault: scheduled crash %d: negative pool %d", i, c.Pool)
		}
		if c.Down == 0 {
			return fmt.Errorf("fault: scheduled crash %d: outage duration must be positive", i)
		}
		if c.At > math.MaxUint64-c.Down {
			return fmt.Errorf("fault: scheduled crash %d: outage overflows the cycle counter", i)
		}
	}
	return nil
}

// window is one half-open fault interval [Start, End).
type window struct{ start, end uint64 }

// stream is one entity's lazily-materialised renewal schedule:
// alternating healthy gaps and fault windows, drawn from the entity's
// own RNG. Windows are appended in time order and never mutated, so the
// schedule covering any cycle t is a pure function of the seed — query
// order cannot change it.
type stream struct {
	r        db.RNG
	meanUp   uint64
	meanDown uint64
	maxDown  uint64 // 0 = unbounded
	frontier uint64 // generation has covered [0, frontier)
	windows  []window
}

// extend materialises windows until the generation frontier passes t,
// so every window overlapping [0, t] exists.
func (st *stream) extend(t uint64) {
	for st.frontier <= t {
		// The +1 keeps every segment strictly advancing the clock.
		up := st.r.ExpGap(float64(st.meanUp)) + 1
		start := st.frontier + up
		down := st.r.ExpGap(float64(st.meanDown)) + 1
		if st.maxDown > 0 && down > st.maxDown {
			down = st.maxDown
		}
		st.windows = append(st.windows, window{start: start, end: start + down})
		st.frontier = start + down
	}
}

// at returns the window containing cycle t, if any.
func (st *stream) at(t uint64) (window, bool) {
	st.extend(t)
	i := sort.Search(len(st.windows), func(i int) bool { return st.windows[i].end > t })
	if i < len(st.windows) && st.windows[i].start <= t {
		return st.windows[i], true
	}
	return window{}, false
}

// nextIn returns the first window starting strictly inside (from, to],
// if any.
func (st *stream) nextIn(from, to uint64) (window, bool) {
	st.extend(to)
	i := sort.Search(len(st.windows), func(i int) bool { return st.windows[i].start > from })
	if i < len(st.windows) && st.windows[i].start <= to {
		return st.windows[i], true
	}
	return window{}, false
}

// Injector answers point-in-time health queries for one fleet geometry.
// Build it with New; a nil or zero Injector reports a perfectly healthy
// fleet on every query without allocating. Not safe for concurrent use
// — it is queried only from the fleet's single-threaded virtual-time
// replay.
type Injector struct {
	spec   Spec
	pools  int
	shards int

	// crash[p] is pool p's stochastic outage schedule; scheduled[p] its
	// sorted scheduled outages. straggle and stall are indexed
	// [pool*shards + shard].
	crash     []stream
	scheduled [][]window
	straggle  []stream
	stall     []stream
}

// streamSeed decorrelates one entity's RNG stream from the spec seed:
// a distinct odd-constant mix per fault kind and entity index, the
// same construction StreamSpec uses to decorrelate class draws.
func streamSeed(seed uint64, kind, entity int) uint64 {
	h := seed ^ (uint64(kind+1) * 0x9E37_79B9_7F4A_7C15)
	h ^= (uint64(entity) + 1) * 0xBF58_476D_1CE4_E5B9
	h ^= h >> 31
	return h
}

// New validates spec against the fleet geometry and builds its
// injector. A disabled spec returns a nil injector — the healthy,
// zero-alloc fast path.
func New(spec Spec, pools, shards int) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.Enabled() {
		return nil, nil
	}
	if pools <= 0 || shards <= 0 {
		return nil, fmt.Errorf("fault: injector needs a positive fleet geometry (%d pools, %d shards)", pools, shards)
	}
	in := &Injector{spec: spec, pools: pools, shards: shards}
	in.scheduled = make([][]window, pools)
	for i, c := range spec.Crashes {
		if c.Pool >= pools {
			return nil, fmt.Errorf("fault: scheduled crash %d: pool %d outside the %d-pool fleet", i, c.Pool, pools)
		}
		in.scheduled[c.Pool] = append(in.scheduled[c.Pool], window{start: c.At, end: c.At + c.Down})
	}
	for p := range in.scheduled {
		ws := in.scheduled[p]
		sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
	}
	if spec.CrashEvery > 0 {
		in.crash = make([]stream, pools)
		for p := range in.crash {
			in.crash[p] = stream{
				r:        *db.NewRNG(streamSeed(spec.Seed, 0, p)),
				meanUp:   spec.CrashEvery,
				meanDown: spec.CrashDown,
			}
		}
	}
	if spec.StraggleEvery > 0 {
		in.straggle = make([]stream, pools*shards)
		for i := range in.straggle {
			in.straggle[i] = stream{
				r:        *db.NewRNG(streamSeed(spec.Seed, 1, i)),
				meanUp:   spec.StraggleEvery,
				meanDown: spec.StraggleFor,
			}
		}
	}
	if spec.StallEvery > 0 {
		maxDown := spec.StallMax
		if maxDown == 0 {
			maxDown = 4 * spec.StallFor
		}
		in.stall = make([]stream, pools*shards)
		for i := range in.stall {
			in.stall[i] = stream{
				r:        *db.NewRNG(streamSeed(spec.Seed, 2, i)),
				meanUp:   spec.StallEvery,
				meanDown: spec.StallFor,
				maxDown:  maxDown,
			}
		}
	}
	return in, nil
}

// Spec echoes the injector's spec (zero for a nil injector).
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{}
	}
	return in.spec
}

// DownUntil reports whether pool p is inside an outage at cycle t and,
// if so, the cycle it recovers.
func (in *Injector) DownUntil(p int, t uint64) (until uint64, down bool) {
	if in == nil || p < 0 || p >= in.pools {
		return 0, false
	}
	for _, w := range in.scheduled[p] {
		if w.start <= t && t < w.end {
			return w.end, true
		}
	}
	if in.crash != nil {
		if w, ok := in.crash[p].at(t); ok {
			return w.end, true
		}
	}
	return 0, false
}

// NextCrash returns the first outage of pool p beginning strictly
// inside (from, to] — the query the replay uses to decide whether a
// crash kills a shard task executing over that interval.
func (in *Injector) NextCrash(p int, from, to uint64) (start, end uint64, ok bool) {
	if in == nil || p < 0 || p >= in.pools || to <= from {
		return 0, 0, false
	}
	best := window{start: math.MaxUint64}
	for _, w := range in.scheduled[p] {
		if w.start > from && w.start <= to && w.start < best.start {
			best = w
		}
	}
	if in.crash != nil {
		if w, found := in.crash[p].nextIn(from, to); found && w.start < best.start {
			best = w
		}
	}
	if best.start == math.MaxUint64 {
		return 0, 0, false
	}
	return best.start, best.end, true
}

// Slowdown returns the multiplicative service-cycle inflation for work
// of (pool, shard) starting at cycle t — Spec.StraggleFactor inside a
// straggler episode, 1 when healthy.
func (in *Injector) Slowdown(p, s int, t uint64) float64 {
	if in == nil || in.straggle == nil || p < 0 || p >= in.pools || s < 0 || s >= in.shards {
		return 1
	}
	if _, ok := in.straggle[p*in.shards+s].at(t); ok {
		return in.spec.StraggleFactor
	}
	return 1
}

// StallUntil returns the cycle a transient stall keeps (pool, shard)
// work arriving at cycle t from starting — t itself when no stall is
// active. Stalls delay starts; they never kill running work.
func (in *Injector) StallUntil(p, s int, t uint64) uint64 {
	if in == nil || in.stall == nil || p < 0 || p >= in.pools || s < 0 || s >= in.shards {
		return t
	}
	if w, ok := in.stall[p*in.shards+s].at(t); ok {
		return w.end
	}
	return t
}
