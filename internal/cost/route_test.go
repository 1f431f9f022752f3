package cost_test

import (
	"errors"
	"reflect"
	"testing"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
)

func bestPlan(a query.Arch) query.Plan {
	p := query.Plan{Arch: a, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: db.DefaultQ06()}
	if a == query.X86 {
		p.OpSize, p.Unroll = 64, 8
	}
	return p
}

// TestEstimateShardedMatchesPickSharded pins the refactor: a
// single-candidate PickSharded and EstimateSharded must agree exactly
// on cycles, traffic, energy and selectivity.
func TestEstimateShardedMatchesPickSharded(t *testing.T) {
	pr := cost.DefaultParams()
	tab := db.GenerateMemo(1024, 42)
	shards, err := db.Partition(tab, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []query.Arch{query.X86, query.HMC, query.HIVE, query.HIPE} {
		p := bestPlan(a)
		d, err := cost.PickSharded(pr, shards, []query.Plan{p})
		if err != nil {
			t.Fatal(err)
		}
		est, sel, err := cost.EstimateSharded(pr, shards, p)
		if err != nil {
			t.Fatal(err)
		}
		if est != d.Estimates[0] || sel != d.Selectivity {
			t.Fatalf("%s: EstimateSharded %+v sel %g, PickSharded %+v sel %g",
				a, est, sel, d.Estimates[0], d.Selectivity)
		}
	}
	if _, _, err := cost.EstimateSharded(pr, nil, bestPlan(query.HIPE)); err == nil {
		t.Fatal("no shards accepted")
	}
	if _, _, err := cost.EstimateSharded(pr, shards, query.Plan{Arch: query.X86, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 8}); err == nil {
		t.Fatal("invalid plan estimated")
	}
}

// TestRankLoadedQueueAwareness: with equal queue depths the fastest
// estimate wins; a big enough backlog on the fast candidate flips the
// pick to the idle slower one; ties break toward the earlier candidate.
func TestRankLoadedQueueAwareness(t *testing.T) {
	ests := []cost.Estimate{
		{Plan: bestPlan(query.HIPE), Cycles: 1000},
		{Plan: bestPlan(query.X86), Cycles: 3000},
	}
	d, err := cost.RankLoadedHealth(0.02, ests, []float64{0, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.ChosenIndex != 0 || d.Chosen.Arch != query.HIPE {
		t.Fatalf("idle pick %d (%s), want the fast candidate", d.ChosenIndex, d.Chosen.Arch)
	}
	d, err = cost.RankLoadedHealth(0.02, ests, []float64{5000, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.ChosenIndex != 1 || d.Chosen.Arch != query.X86 {
		t.Fatalf("loaded pick %d (%s), want the idle candidate", d.ChosenIndex, d.Chosen.Arch)
	}
	if d.QueueCycles[0] != 5000 || d.QueueCycles[1] != 0 {
		t.Fatalf("queue penalties not recorded: %v", d.QueueCycles)
	}
	if d.Estimates[0].Cycles != 1000 {
		t.Fatal("estimates must stay the pure model predictions")
	}
	// Exact tie: earlier candidate wins.
	d, err = cost.RankLoadedHealth(0.02, ests, []float64{2000, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.ChosenIndex != 0 {
		t.Fatalf("tie broke to %d, want 0", d.ChosenIndex)
	}
}

func TestRankLoadedRejectsMalformedInput(t *testing.T) {
	if _, err := cost.RankLoadedHealth(0, nil, nil, nil, nil); err == nil {
		t.Fatal("empty candidate list accepted")
	}
	ests := []cost.Estimate{{Plan: bestPlan(query.HIPE), Cycles: 1}}
	if _, err := cost.RankLoadedHealth(0, ests, []float64{1, 2}, nil, nil); err == nil {
		t.Fatal("mismatched queue slice accepted")
	}
	if _, err := cost.RankLoadedHealth(0, ests, []float64{}, nil, nil); err == nil {
		t.Fatal("empty, non-nil queue slice accepted")
	}
}

// TestRankLoadedHealthNilQueueIsUnloadedPick: a nil queue is the
// unloaded pick Pick and PickSharded rank through — QueueCycles stays
// nil, so a cluster's routing exports carry no queue column, ties keep
// the earliest minimum, and over the same candidates the decision is
// the one Pick and PickSharded return.
func TestRankLoadedHealthNilQueueIsUnloadedPick(t *testing.T) {
	tied := []cost.Estimate{
		{Plan: bestPlan(query.HIPE), Cycles: 2000},
		{Plan: bestPlan(query.X86), Cycles: 1000},
		{Plan: bestPlan(query.HMC), Cycles: 1000},
	}
	d, err := cost.RankLoadedHealth(0.02, tied, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.QueueCycles != nil {
		t.Fatalf("an unloaded pick recorded queue penalties %v", d.QueueCycles)
	}
	if d.ChosenIndex != 1 || d.Chosen != tied[1].Plan {
		t.Fatalf("tie broke to %d (%s), want the earliest minimum 1", d.ChosenIndex, d.Chosen)
	}

	pr := cost.DefaultParams()
	tab := db.GenerateClusteredMemo(4096, 42, 10)
	shards, err := db.Partition(tab, 4)
	if err != nil {
		t.Fatal(err)
	}
	var cands []query.Plan
	for _, a := range []query.Arch{query.X86, query.HMC, query.HIVE, query.HIPE} {
		cands = append(cands, bestPlan(a))
	}
	same := func(what string, got *cost.Decision, ests []cost.Estimate, sel float64) {
		t.Helper()
		want, err := cost.RankLoadedHealth(sel, ests, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s decision %+v, the unloaded rank of its candidates %+v", what, got, want)
		}
	}
	var ests, shardedEsts []cost.Estimate
	var shardedSel float64
	for i, p := range cands {
		est, err := cost.EstimatePlan(pr, p, cost.ProfileFor(tab, p))
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, est)
		e, sel, err := cost.EstimateSharded(pr, shards, p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			shardedSel = sel
		}
		shardedEsts = append(shardedEsts, e)
	}
	picked, err := cost.Pick(pr, tab, cands)
	if err != nil {
		t.Fatal(err)
	}
	same("Pick", picked, ests, cost.ProfileFor(tab, cands[0]).Sel)
	sharded, err := cost.PickSharded(pr, shards, cands)
	if err != nil {
		t.Fatal(err)
	}
	same("PickSharded", sharded, shardedEsts, shardedSel)
}

// TestRankLoadedHealthFailover: down candidates are excluded, observed
// straggler slowdowns inflate the model estimate before the queue
// penalty, a nil health slice ranks every replica healthy without
// recording health, and an all-down panel reports ErrAllDown.
func TestRankLoadedHealthFailover(t *testing.T) {
	ests := []cost.Estimate{
		{Plan: bestPlan(query.HIPE), Cycles: 1000},
		{Plan: bestPlan(query.X86), Cycles: 3000},
	}
	queue := []float64{0, 0}

	// Nil health ranks as an all-healthy panel and records no health.
	healthy, err := cost.RankLoadedHealth(0.02, ests, queue, []cost.Health{{}, {}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nilHealth, err := cost.RankLoadedHealth(0.02, ests, queue, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nilHealth.ChosenIndex != healthy.ChosenIndex || nilHealth.Health != nil {
		t.Fatalf("nil health pick %d (health %v), want the healthy panel's %d with no health recorded",
			nilHealth.ChosenIndex, nilHealth.Health, healthy.ChosenIndex)
	}

	// The fast candidate down: routing must exclude it outright even
	// though its score dominates.
	d, err := cost.RankLoadedHealth(0.02, ests, queue, []cost.Health{{Down: true}, {}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.ChosenIndex != 1 {
		t.Fatalf("down candidate still chosen (pick %d)", d.ChosenIndex)
	}
	if len(d.Health) != 2 || !d.Health[0].Down {
		t.Fatalf("health snapshot not recorded on the decision: %+v", d.Health)
	}
	if d.Estimates[0].Cycles != 1000 {
		t.Fatal("estimates must stay the pure model predictions")
	}

	// A slowdown big enough flips the pick to the slower healthy pool:
	// 1000 * 4 > 3000.
	d, err = cost.RankLoadedHealth(0.02, ests, queue, []cost.Health{{Slowdown: 4}, {}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.ChosenIndex != 1 {
		t.Fatalf("straggler penalty did not flip the pick (got %d)", d.ChosenIndex)
	}
	// A slowdown below the flip point leaves the fast candidate in
	// front; sub-unity slowdowns never reward a candidate.
	d, err = cost.RankLoadedHealth(0.02, ests, queue, []cost.Health{{Slowdown: 2}, {Slowdown: 0.25}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.ChosenIndex != 0 {
		t.Fatalf("mild straggler lost a race it should win (pick %d)", d.ChosenIndex)
	}

	// Everything down: ErrAllDown, so the caller can queue for the
	// earliest recovery instead.
	if _, err := cost.RankLoadedHealth(0.02, ests, queue, []cost.Health{{Down: true}, {Down: true}}, nil); !errors.Is(err, cost.ErrAllDown) {
		t.Fatalf("all-down error = %v, want ErrAllDown", err)
	}

	// Health slice length must match the candidate list.
	if _, err := cost.RankLoadedHealth(0.02, ests, queue, []cost.Health{{}}, nil); err == nil {
		t.Fatal("mismatched health slice accepted")
	}
}

// TestRankLoadedHealthKeepsEstimates pins the input contract: the
// decision keeps the estimate slice it is given, so decisions over one
// candidate list share it, and copies the queue penalties, health and
// observations, which the caller may then overwrite.
func TestRankLoadedHealthKeepsEstimates(t *testing.T) {
	ests := []cost.Estimate{
		{Plan: bestPlan(query.HIPE), Cycles: 1000},
		{Plan: bestPlan(query.X86), Cycles: 3000},
	}
	queue := []float64{0, 500}
	health := []cost.Health{{}, {Slowdown: 2}}
	obs := []float64{0, 2500}
	a, err := cost.RankLoadedHealth(0.02, ests, queue, health, obs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cost.RankLoadedHealth(0.02, ests, queue, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Estimates[0] != &ests[0] || &b.Estimates[0] != &ests[0] {
		t.Error("a decision copied its estimates instead of keeping the slice it was given")
	}
	queue[0], health[0], obs[0] = 9999, cost.Health{Down: true}, 9999
	if a.QueueCycles[0] != 0 || a.Health[0].Down || a.ObsCycles[0] != 0 || b.QueueCycles[0] != 0 {
		t.Errorf("overwriting the caller's inputs reached the decisions: queue %v, health %v, obs %v",
			a.QueueCycles, a.Health, a.ObsCycles)
	}
}

// TestRankLoadedHealthAllDownUnequalRecovery pins the all-down
// contract end to end: the health-aware rank refuses the panel with
// ErrAllDown, and the caller's documented fallback — health-blind
// ranking with each pool's outage wait folded into its queue penalty —
// queues for the earliest recovery, not the fastest model estimate.
func TestRankLoadedHealthAllDownUnequalRecovery(t *testing.T) {
	ests := []cost.Estimate{
		{Plan: bestPlan(query.HIPE), Cycles: 1000},
		{Plan: bestPlan(query.X86), Cycles: 3000},
	}
	// Both down; the fast pool recovers in 90k cycles, the slow one in 2k.
	health := []cost.Health{{Down: true}, {Down: true}}
	queue := []float64{90_000, 2_000}
	if _, err := cost.RankLoadedHealth(0.02, ests, queue, health, nil); !errors.Is(err, cost.ErrAllDown) {
		t.Fatalf("all-down error = %v, want ErrAllDown", err)
	}
	d, err := cost.RankLoadedHealth(0.02, ests, queue, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.ChosenIndex != 1 {
		t.Fatalf("earliest-recovery fallback picked %d, want the sooner pool 1", d.ChosenIndex)
	}
	// Waits close enough that the model estimate still matters: 1000+4000
	// beats 3000+2500.
	d, err = cost.RankLoadedHealth(0.02, ests, []float64{4_000, 2_500}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.ChosenIndex != 0 {
		t.Fatalf("recovery-wait fold ignored the model estimate (pick %d)", d.ChosenIndex)
	}
}

// TestRankLoadedHealthStragglerCrossesThreshold replays the serve
// layer's slowdown fold (slow = 0.75*slow + 0.25*observed) against the
// rank: the pick must stay on the nominally faster pool until the EWMA
// crosses the 3x break-even point mid-stream, then flip — and flip
// back once healthy observations wash the episode out.
func TestRankLoadedHealthStragglerCrossesThreshold(t *testing.T) {
	ests := []cost.Estimate{
		{Plan: bestPlan(query.HIPE), Cycles: 1000},
		{Plan: bestPlan(query.X86), Cycles: 3000},
	}
	queue := []float64{0, 0}
	pickAt := func(slow float64) int {
		t.Helper()
		d, err := cost.RankLoadedHealth(0.02, ests, queue, []cost.Health{{Slowdown: slow}, {}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d.ChosenIndex
	}
	slow, flipped := 1.0, -1
	for i := 0; i < 8; i++ {
		if pickAt(slow) == 1 {
			flipped = i
			break
		}
		slow = 0.75*slow + 0.25*9 // straggling: every attempt observes 9x service
	}
	// 1.0 -> 3.0 (tie, earlier wins) -> 4.5: the flip lands on fold 2.
	if flipped != 2 {
		t.Fatalf("pick flipped after %d straggler folds, want 2 (EWMA crossing 3x)", flipped)
	}
	for i := 0; i < 16 && pickAt(slow) == 1; i++ {
		slow = 0.75*slow + 0.25*1 // recovered: nominal observations decay the EWMA
	}
	if got := pickAt(slow); got != 0 {
		t.Fatalf("pick never returned to the recovered pool (stuck on %d, slowdown %g)", got, slow)
	}
}

// TestRankLoadedHealthTieBreakAcrossOrderings pins the tie-break
// contract under reordering: equal-scored candidates always resolve to
// the earliest input index, in every presentation order, on both the
// health-aware and health-blind paths — so a fixed candidate order
// yields one deterministic pick at any worker count.
func TestRankLoadedHealthTieBreakAcrossOrderings(t *testing.T) {
	hipe := cost.Estimate{Plan: bestPlan(query.HIPE), Cycles: 2000}
	x86 := cost.Estimate{Plan: bestPlan(query.X86), Cycles: 2000}
	hmc := cost.Estimate{Plan: bestPlan(query.HMC), Cycles: 2000}
	orders := [][]cost.Estimate{
		{hipe, x86, hmc},
		{hmc, hipe, x86},
		{x86, hmc, hipe},
	}
	for oi, ests := range orders {
		queue := []float64{0, 0, 0}
		for run := 0; run < 3; run++ {
			d, err := cost.RankLoadedHealth(0.02, ests, queue, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d.ChosenIndex != 0 || d.Chosen.Arch != ests[0].Plan.Arch {
				t.Fatalf("order %d run %d: tie broke to %d (%s), want index 0 (%s)",
					oi, run, d.ChosenIndex, d.Chosen.Arch, ests[0].Plan.Arch)
			}
			h := []cost.Health{{Slowdown: 2}, {Slowdown: 2}, {Slowdown: 2}}
			dh, err := cost.RankLoadedHealth(0.02, ests, queue, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			if dh.ChosenIndex != 0 {
				t.Fatalf("order %d run %d: health-aware tie broke to %d, want 0", oi, run, dh.ChosenIndex)
			}
		}
	}
}

// TestRankLoadedObservedCycles pins the adaptive input's ranking
// contract: a positive observed entry replaces that candidate's
// analytic prediction, a zero entry keeps the prior, nil keeps the
// whole decision byte-identical to the static rank, provenance lands
// on the decision, and a mismatched slice is rejected.
func TestRankLoadedObservedCycles(t *testing.T) {
	ests := []cost.Estimate{
		{Plan: bestPlan(query.HIPE), Cycles: 1000},
		{Plan: bestPlan(query.X86), Cycles: 3000},
	}
	queue := []float64{0, 0}

	// The model thinks HIPE is 3x faster, but observation says it costs
	// 5000 cycles here: the pick must flip to x86's analytic prior.
	d, err := cost.RankLoadedHealth(0.02, ests, queue, nil, []float64{5000, 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.ChosenIndex != 1 {
		t.Fatalf("observed cycles did not flip the pick (got %d)", d.ChosenIndex)
	}
	if d.RouteMode != "adaptive" || len(d.ObsCycles) != 2 || d.ObsCycles[0] != 5000 {
		t.Fatalf("adaptive provenance not recorded: mode %q obs %v", d.RouteMode, d.ObsCycles)
	}
	if d.Estimates[0].Cycles != 1000 {
		t.Fatal("estimates must stay the pure model predictions")
	}

	// Observations inflate under the health penalty exactly like priors.
	d, err = cost.RankLoadedHealth(0.02, ests, queue, []cost.Health{{Slowdown: 4}, {}}, []float64{800, 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.ChosenIndex != 1 {
		t.Fatalf("health penalty skipped the observed base (pick %d)", d.ChosenIndex)
	}

	// Nil observations: byte-identical static decision, no provenance.
	d, err = cost.RankLoadedHealth(0.02, ests, queue, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.RouteMode != "" || d.ObsCycles != nil || d.Explored {
		t.Fatalf("static decision grew adaptive provenance: %+v", d)
	}

	if _, err := cost.RankLoadedHealth(0.02, ests, queue, nil, []float64{1}); err == nil {
		t.Fatal("mismatched observed-cycles slice accepted")
	}
}
