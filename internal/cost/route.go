// The routing decision: rank candidate plans by estimated cycles and
// pick the predicted-fastest. The decision object carries every
// candidate's estimate so routing is auditable — serve reports and
// sweep exports record it column for column.
package cost

import (
	"errors"
	"fmt"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
)

// Decision is one routing outcome: the profiled selectivity, every
// candidate's estimate (in candidate order), and the chosen plan.
type Decision struct {
	// Selectivity is the full-predicate selectivity the candidates were
	// profiled at (taken from the first candidate's profile; candidates
	// share a predicate, so chunk granularity is the only difference).
	Selectivity float64
	// Estimates holds one estimate per candidate, in input order.
	Estimates []Estimate
	// QueueCycles holds the per-candidate queue-depth penalty a loaded
	// pick (RankLoadedHealth) added to each estimate, in candidate order.
	// Nil for unloaded decisions, so pre-fleet exports are unchanged.
	QueueCycles []float64 `json:",omitempty"`
	// Health holds the per-candidate replica health a health-aware pick
	// (RankLoadedHealth) ranked under, in candidate order. Nil for
	// health-blind decisions, so fault-free exports are unchanged.
	Health []Health `json:",omitempty"`
	// ObsCycles holds the per-candidate blended observed-cycles
	// estimate an adaptive pick ranked with (0 where the candidate's
	// bucket was cold and the analytic prior stood alone), in candidate
	// order. Nil for static decisions, so adaptive-off exports are
	// unchanged.
	ObsCycles []float64 `json:",omitempty"`
	// BucketSamples holds the per-candidate observation count behind
	// ObsCycles, in candidate order. Nil for static decisions.
	BucketSamples []uint64 `json:",omitempty"`
	// RouteMode records how the pick was made: "" for static (analytic
	// model only), "adaptive" when observed cycles were blended in.
	RouteMode string `json:",omitempty"`
	// Explored reports that the deterministic exploration floor
	// overrode the blended ranking for this request.
	Explored bool `json:",omitempty"`
	// Chosen is the predicted-fastest candidate's plan.
	Chosen query.Plan
	// ChosenIndex is its position in Estimates.
	ChosenIndex int
}

// EstimateFor returns the decision's estimate for an architecture (nil
// when the architecture was not a candidate).
func (d *Decision) EstimateFor(a query.Arch) *Estimate {
	for i := range d.Estimates {
		if d.Estimates[i].Plan.Arch == a {
			return &d.Estimates[i]
		}
	}
	return nil
}

// Pick profiles tab for each candidate plan, estimates them all, and
// returns the decision for the lowest predicted cycle count. Ties break
// toward the earlier candidate, so the decision is deterministic for a
// fixed candidate order. Candidates whose envelope rejects the workload
// (e.g. Q01 accumulator-overflow bounds) are skipped; an error is
// returned only when no candidate survives.
func Pick(pr Params, tab *db.Table, candidates []query.Plan) (*Decision, error) {
	profs := newProfileCache(tab)
	return pick(candidates, "workload", func(p query.Plan) (Estimate, float64, error) {
		prof := profs.get(p)
		est, err := EstimatePlan(pr, p, prof)
		return est, prof.Sel, err
	})
}

// PickSharded ranks candidates over a horizontally partitioned table —
// the serving cluster's shape. A request's service time is its
// scatter-gather critical path, so each candidate's cost is its
// predicted cycles on the SLOWEST shard; this matters on clustered
// layouts, where contiguous shards cover different date ranges and a
// predicate's chunk survival concentrates in a few shards. The
// decision's estimate carries the max-shard cycles and the summed DRAM
// traffic/energy; its selectivity is the whole-table (row-weighted)
// fraction.
func PickSharded(pr Params, shards []*db.Table, candidates []query.Plan) (*Decision, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cost: no shards")
	}
	caches := make([]*profileCache, len(shards))
	for i, s := range shards {
		caches[i] = newProfileCache(s)
	}
	return pick(candidates, "sharded workload", func(p query.Plan) (Estimate, float64, error) {
		return estimateShardedWith(pr, shards, caches, p)
	})
}

// pick is Pick's and PickSharded's candidate loop: estimate each
// candidate, skip the ones est rejects, take the first survivor's
// selectivity and rank the survivors as an unloaded RankLoadedHealth
// pick. what names the workload in the error returned when no candidate
// survives. est does not escape, so the callers' closures stay on their
// stacks.
func pick(candidates []query.Plan, what string, est func(query.Plan) (Estimate, float64, error)) (*Decision, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("cost: no candidate plans")
	}
	var ests []Estimate
	var sel float64
	for _, p := range candidates {
		e, s, err := est(p)
		if err != nil {
			continue
		}
		if ests == nil {
			sel = s
		}
		ests = append(ests, e)
	}
	if ests == nil {
		return nil, fmt.Errorf("cost: no candidate plan fits the %s (%d candidates rejected)", what, len(candidates))
	}
	return RankLoadedHealth(sel, ests, nil, nil, nil)
}

// EstimateSharded aggregates one plan's estimate over a horizontally
// partitioned table — max-shard (critical path) cycles, summed DRAM
// traffic and energy — and the whole-table row-weighted selectivity.
// This is the serving router's per-candidate input: it is a pure
// function of (params, shards, plan), so the serving layer memoises it
// per distinct plan under one cost model and re-ranks per request as
// queues move.
func EstimateSharded(pr Params, shards []*db.Table, p query.Plan) (Estimate, float64, error) {
	if len(shards) == 0 {
		return Estimate{}, 0, fmt.Errorf("cost: no shards")
	}
	caches := make([]*profileCache, len(shards))
	for i, s := range shards {
		caches[i] = newProfileCache(s)
	}
	return estimateShardedWith(pr, shards, caches, p)
}

// estimateShardedWith is EstimateSharded over caller-owned profile
// caches, so PickSharded shares profiles across candidates that differ
// only in chunk granularity.
func estimateShardedWith(pr Params, shards []*db.Table, caches []*profileCache, p query.Plan) (Estimate, float64, error) {
	var agg Estimate
	var matchRows float64
	totalRows := 0
	for si, s := range shards {
		totalRows += s.N
		prof := caches[si].get(p)
		est, err := EstimatePlan(pr, p, prof)
		if err != nil {
			return Estimate{}, 0, err
		}
		if est.Cycles > agg.Cycles {
			agg.Cycles = est.Cycles
		}
		agg.DRAMBytes += est.DRAMBytes
		agg.EnergyPJ += est.EnergyPJ
		matchRows += prof.Sel * float64(s.N)
	}
	agg.Plan = p
	sel := 0.0
	if totalRows > 0 {
		sel = matchRows / float64(totalRows)
	}
	return agg, sel, nil
}

// Health is one candidate replica's observed health at routing time:
// whether it is down (crashed and not yet recovered) and the observed
// multiplicative service slowdown its recent work showed (1 = nominal;
// values below 1 are treated as 1).
type Health struct {
	Down     bool    `json:",omitempty"`
	Slowdown float64 `json:",omitempty"`
}

// penalty returns the score multiplier this health imposes.
func (h Health) penalty() float64 {
	if h.Slowdown > 1 {
		return h.Slowdown
	}
	return 1
}

// ErrAllDown is returned by RankLoadedHealth when every candidate
// replica is down — the caller decides whether to queue for the
// earliest recovery or fail the request.
var ErrAllDown = errors.New("cost: every candidate replica is down")

// RankLoadedHealth is the one ranking loop: every routing decision,
// Pick's and PickSharded's included, is made here. It ranks
// pre-computed candidate estimates by predicted critical path PLUS the
// candidate replica's current virtual-time queue depth, so an idle
// slower pool can beat a backed-up faster one; a nil queue is an
// unloaded pick, and the decision's QueueCycles stays nil. Candidates
// whose replica is down are excluded outright, and candidates on
// straggling replicas have their predicted critical path inflated by
// the observed slowdown factor before the queue penalty is added — so a
// nominally faster but straggling pool loses to a healthy one the model
// ranks close; a nil health slice is a health-blind pick. The obs slice
// carries per-candidate blended observed cycles from adaptive routing
// (Adaptive.Blended): a positive entry replaces that candidate's
// analytic prediction in the score, a zero entry means the bucket was
// cold and the prior stands, and a nil slice is a fully static pick.
// Estimates keep the pure model predictions; the queue penalties,
// health snapshot and blended observations are recorded on the decision
// (Decision.QueueCycles, Decision.Health, Decision.ObsCycles,
// Decision.RouteMode) so every pick stays auditable. When every
// candidate is down the error wraps ErrAllDown. Ties break toward the
// earlier candidate — deterministic for a fixed candidate order at any
// worker count. The decision keeps ests itself as its Estimates, so
// many decisions over one candidate list can share one slice, which
// nobody may modify afterwards; queue, health and obs are copied, so
// the caller may reuse them.
func RankLoadedHealth(sel float64, ests []Estimate, queue []float64, health []Health, obs []float64) (*Decision, error) {
	if len(ests) == 0 {
		return nil, fmt.Errorf("cost: no candidate estimates")
	}
	if queue != nil && len(queue) != len(ests) {
		return nil, fmt.Errorf("cost: %d queue penalties for %d candidates", len(queue), len(ests))
	}
	if health != nil && len(health) != len(ests) {
		return nil, fmt.Errorf("cost: %d health entries for %d candidates", len(health), len(ests))
	}
	if obs != nil && len(obs) != len(ests) {
		return nil, fmt.Errorf("cost: %d observed-cycle entries for %d candidates", len(obs), len(ests))
	}
	d := &Decision{
		Selectivity: sel,
		Estimates:   ests,
		QueueCycles: append([]float64(nil), queue...),
		ChosenIndex: -1,
	}
	if health != nil {
		d.Health = append([]Health(nil), health...)
	}
	if obs != nil {
		d.ObsCycles = append([]float64(nil), obs...)
		d.RouteMode = "adaptive"
	}
	var best float64
	for i := range ests {
		if health != nil && health[i].Down {
			continue
		}
		base := ests[i].Cycles
		if obs != nil && obs[i] > 0 {
			base = obs[i]
		}
		var q float64
		if queue != nil {
			q = queue[i]
		}
		score := base + q
		if health != nil {
			score = base*health[i].penalty() + q
		}
		if d.ChosenIndex < 0 || score < best {
			best = score
			d.ChosenIndex = i
		}
	}
	if d.ChosenIndex < 0 {
		return nil, fmt.Errorf("cost: ranking %d candidates: %w", len(ests), ErrAllDown)
	}
	d.Chosen = d.Estimates[d.ChosenIndex].Plan
	return d, nil
}
