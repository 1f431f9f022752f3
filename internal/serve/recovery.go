// Request-level recovery for the replicated fleet: per-class
// virtual-time attempt timeouts, capped exponential-backoff retries,
// hedged second attempts, health-aware failover routing, and — when
// the retry budget runs out — graceful degradation to a partial result
// with exact coverage and answer-error accounting.
//
// The whole mechanism lives inside the single-threaded virtual-time
// replay (replay.go), so faulted runs are exactly as deterministic —
// and as worker-count-independent — as healthy ones: a healthy run is
// the same dispatcher with a nil injector and no policy. The replay
// keeps arrival-order priority: a request's retries and hedges book
// shard capacity when the request is processed, ahead of later
// arrivals — a deterministic simplification of real contention between
// retried and fresh work.
package serve

import (
	"fmt"
	"math"
	"strconv"

	"github.com/hipe-sim/hipe/internal/obs"
)

// RecoverySpec declares the fleet's request-level recovery policy.
// The zero value (or a nil pointer on the load spec) disables every
// mechanism; per-class timeouts and hedge delays live on ClassSpec.
type RecoverySpec struct {
	// MaxRetries bounds the re-dispatch attempts after the first try.
	// A request whose final attempt fails degrades to a partial result.
	MaxRetries int
	// BackoffCycles is the virtual-time delay between a failed attempt
	// and its retry; each further retry doubles it (capped exponential
	// backoff). Zero retries immediately.
	BackoffCycles uint64
	// BackoffCapCycles caps the doubling (0 = uncapped).
	BackoffCapCycles uint64
	// Hedge honours the classes' HedgeCycles delays: a primary attempt
	// still incomplete that long after dispatch gets a second attempt
	// on the next-ranked distinct replica pool, first completion wins.
	Hedge bool
	// Failover makes routing health-aware (cost.RankLoadedHealth): down
	// replica pools are excluded and straggling pools are penalised by
	// the replay's observed-slowdown factor.
	Failover bool
}

// validate rejects malformed recovery policies.
func (r *RecoverySpec) validate() error {
	if r == nil {
		return nil
	}
	if r.MaxRetries < 0 {
		return fmt.Errorf("serve: negative retry budget %d", r.MaxRetries)
	}
	if r.BackoffCapCycles > 0 && r.BackoffCapCycles < r.BackoffCycles {
		return fmt.Errorf("serve: backoff cap %d below the base backoff %d",
			r.BackoffCapCycles, r.BackoffCycles)
	}
	return nil
}

// FaultStats totals a faulted/recovering load test's fault events and
// recovery actions. It appears on the report (and, with counters on,
// as serve.* keys in Report.Counters) only when fault injection or a
// recovery policy was configured.
type FaultStats struct {
	// CrashKills counts shard tasks killed mid-flight by a replica
	// outage; StallDelays dispatches delayed by a transient stall;
	// Straggles shard tasks inflated by a straggler episode.
	CrashKills  int
	StallDelays int
	Straggles   int
	// Retries, Hedges, HedgeWins and Failovers total the recovery
	// actions; Degraded the requests answered with a partial result.
	Retries   int
	Hedges    int
	HedgeWins int
	Failovers int
	Degraded  int
}

// recoveryCounters renders the totals as obs counter keys so
// BENCH-style overhead checks can read recovery cost next to the
// machine counters.
func (fs *FaultStats) recoveryCounters(shed int) *obs.Counters {
	return obs.NewCounters(map[string]uint64{
		"serve.crash_kills":  uint64(fs.CrashKills),
		"serve.stall_delays": uint64(fs.StallDelays),
		"serve.straggles":    uint64(fs.Straggles),
		"serve.retries":      uint64(fs.Retries),
		"serve.hedges":       uint64(fs.Hedges),
		"serve.hedge_wins":   uint64(fs.HedgeWins),
		"serve.failovers":    uint64(fs.Failovers),
		"serve.shed":         uint64(shed),
		"serve.degraded":     uint64(fs.Degraded),
	})
}

// coverage accumulates the shards a request actually scanned across
// all its attempts. Any attempt's completion of shard s yields the
// identical verified partial (candidate plans share the predicate), so
// first-completion accounting is exact.
type coverage struct {
	rows    int
	matches int
	revenue int64
}

// attemptOutcome is one attempt's resolution on candidate cand: success
// when every shard completed inside the deadline with no crash kill;
// completion is the slowest completed shard's end; resolve is the cycle
// the outcome is known (completion on success, the last kill/deadline
// otherwise).
type attemptOutcome struct {
	cand       candidate
	success    bool
	completion uint64
	resolve    uint64
}

// runAttempt books one attempt of a request on candidate c's pool,
// dispatched at cycle t under the attempt timeout (0: none) — the
// dispatcher's shard-FIFO booking step. Per shard it applies, in order:
// FIFO queueing behind the pool's booked work, transient stall delay,
// outage wait, straggler service inflation; then resolves the task as
// completed, killed by a crash beginning mid-execution, or cancelled at
// the deadline. Booked busy cycles — including wasted work of killed
// and cancelled tasks — land on the (pool, shard) accounting, and
// first-time shard completions accumulate into cov. With a nil injector
// and no timeout every task completes and nothing allocates.
func (rp *replay) runAttempt(reqName string, c candidate, t, timeout uint64, cov *coverage) attemptOutcome {
	parts := rp.byPlan[c.slot]
	free := rp.free[c.pool]
	lanes := rp.lanes[c.pool]
	deadline := uint64(math.MaxUint64)
	if timeout > 0 {
		deadline = t + timeout
	}
	out := attemptOutcome{cand: c, success: true}
	maxRatio := 0.0
	for s, p := range parts {
		start := t
		if free[s] > start {
			start = free[s]
		}
		if st := rp.inj.StallUntil(c.pool, s, start); st > start {
			start = st
			rp.report.Faults.StallDelays++
		}
		if until, down := rp.inj.DownUntil(c.pool, start); down {
			start = until
		}
		if start >= deadline {
			// The shard never starts inside the attempt's budget; its
			// queue state is untouched.
			out.success = false
			if deadline > out.resolve {
				out.resolve = deadline
			}
			continue
		}
		svc := p.Cycles
		if slow := rp.inj.Slowdown(c.pool, s, start); slow > 1 {
			svc = uint64(math.Ceil(float64(svc) * slow))
			rp.report.Faults.Straggles++
		}
		end := start + svc
		lanes[s].Tasks++
		switch crashAt, _, killed := rp.inj.NextCrash(c.pool, start, end); {
		case killed:
			// The outage kills the task mid-flight; work up to the crash
			// is wasted. Later starts on this shard pass through
			// DownUntil, which parks them past the recovery.
			lanes[s].BusyCycles += crashAt - start
			free[s] = crashAt
			rp.report.Faults.CrashKills++
			out.success = false
			if crashAt > out.resolve {
				out.resolve = crashAt
			}
			if rp.tr.On() {
				rp.tr.Complete(reqName, "shard-killed", 1+c.pool, s, start, crashAt,
					obs.Arg{Key: "fault", Val: "crash"})
			}
		case end > deadline:
			// Cancelled at the class deadline; partial work is wasted.
			lanes[s].BusyCycles += deadline - start
			free[s] = deadline
			out.success = false
			if deadline > out.resolve {
				out.resolve = deadline
			}
			if rp.tr.On() {
				rp.tr.Complete(reqName, "shard-timeout", 1+c.pool, s, start, deadline,
					obs.Arg{Key: "fault", Val: "timeout"})
			}
		default:
			lanes[s].BusyCycles += svc
			free[s] = end
			if end > out.completion {
				out.completion = end
			}
			if end > out.resolve {
				out.resolve = end
			}
			if ratio := float64(svc) / float64(p.Cycles); ratio > maxRatio {
				maxRatio = ratio
			}
			if !rp.done[s] {
				rp.done[s] = true
				cov.rows += rp.c.shards[s].N
				cov.matches += p.Matches
				cov.revenue += p.Revenue
			}
			if rp.tr.On() {
				rp.tr.Complete(reqName, "shard", 1+c.pool, s, start, end,
					obs.Arg{Key: "matches", Val: strconv.Itoa(p.Matches)})
			}
		}
	}
	// Fold the attempt's observed service inflation into the pool's
	// slowdown estimate — the failover router's straggler signal. Only
	// completed tasks observe a ratio; kills are caught by DownUntil.
	if maxRatio > 0 {
		rp.slow[c.pool] = 0.75*rp.slow[c.pool] + 0.25*maxRatio
	}
	return out
}

// relErr is the relative error of a partial answer against the
// reference value (exact 0 when they agree; |ref| saturates at 1 so a
// zero reference cannot divide by zero).
func relErr(seen, ref float64) float64 {
	den := math.Abs(ref)
	if den < 1 {
		den = 1
	}
	return math.Abs(ref-seen) / den
}
