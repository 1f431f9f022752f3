package cost_test

import (
	"testing"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
)

// syntheticProfile builds a profile with every survival fraction (and
// the selectivity) pinned to s — the knob the monotonicity law is
// stated over.
func syntheticProfile(p query.Plan, tuples int, s float64) cost.Profile {
	d := p.Desc()
	surv := make([]float64, len(d.Stages))
	for i := range surv {
		surv[i] = s
	}
	return cost.Profile{Tuples: tuples, Sel: s, Stages: d.Stages, Survival: surv}
}

// TestMonotonicSelectivity pins the model's shape law: for every
// accumulating plan (the Q01 aggregations on all four backends, plus
// HIPE's predicated Q06 scan and its in-memory aggregation extension),
// estimated cycles must be non-decreasing in selectivity — more
// surviving chunks can only add work.
func TestMonotonicSelectivity(t *testing.T) {
	pr := cost.DefaultParams()
	plans := []query.Plan{
		{Arch: query.X86, Strategy: query.ColumnAtATime, OpSize: 64, Unroll: 8, Kind: query.Q1Agg, Q1: db.DefaultQ01()},
		{Arch: query.HMC, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Kind: query.Q1Agg, Q1: db.DefaultQ01()},
		{Arch: query.HIVE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Kind: query.Q1Agg, Q1: db.DefaultQ01()},
		{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Kind: query.Q1Agg, Q1: db.DefaultQ01()},
		{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: db.DefaultQ06()},
		{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Aggregate: true, Q: db.DefaultQ06()},
	}
	const tuples = 4096
	for _, p := range plans {
		prev := -1.0
		for _, s := range []float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			est, err := cost.EstimatePlan(pr, p, syntheticProfile(p, tuples, s))
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if est.Cycles < prev {
				t.Errorf("%s: estimate decreased from %.0f to %.0f at selectivity %.2f",
					p, prev, est.Cycles, s)
			}
			prev = est.Cycles
		}
	}
}

// TestCrossovers pins the paper's selectivity crossovers in the model,
// against real measured cycles on a date-clustered table.
//
// Q6: HIPE (predication skips whole chunks of the later columns) wins
// at low selectivity; at high selectivity nothing squashes, the
// predication tax dominates, and HIVE's unconditional fused scan wins.
//
// Q1: HIPE's one predicated pass beats the HMC baseline's round-trip
// bitmasks at low selectivity and loses above the crossover; and the
// x86 DSM baseline — hopeless at low selectivity — closes most of its
// gap at selectivity 1, where every backend must touch every byte.
func TestCrossovers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the crossover endpoints")
	}
	pr := cost.DefaultParams()
	const n = 4096
	tab := db.GenerateClusteredMemo(n, 42, 10)

	estimate := func(p query.Plan) float64 {
		est, err := cost.EstimatePlan(pr, p, cost.ProfileFor(tab, p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		return est.Cycles
	}

	// --- Q6: HIPE vs HIVE crossover ---
	lowQ6 := db.DefaultQ06() // ~2% selectivity, 1-year date window
	highQ6 := db.Q06{ShipLo: 0, ShipHi: db.ShipDateDays, DiscLo: 0, DiscHi: 10, QtyHi: 51}
	for _, tc := range []struct {
		q    db.Q06
		want query.Arch
	}{
		{lowQ6, query.HIPE},
		{highQ6, query.HIVE},
	} {
		hipeEst := estimate(servePlan(query.HIPE, tc.q))
		hiveEst := estimate(servePlan(query.HIVE, tc.q))
		modelWinner := query.HIPE
		if hiveEst < hipeEst {
			modelWinner = query.HIVE
		}
		if modelWinner != tc.want {
			t.Errorf("q6 sel=%.3f: model winner %s, want %s (hipe=%.0f hive=%.0f)",
				db.Selectivity(tab, tc.q), modelWinner, tc.want, hipeEst, hiveEst)
		}
		// The model's winner must agree with the simulator.
		hipeMeas := measure(t, tab, servePlan(query.HIPE, tc.q))
		hiveMeas := measure(t, tab, servePlan(query.HIVE, tc.q))
		measWinner := query.HIPE
		if hiveMeas < hipeMeas {
			measWinner = query.HIVE
		}
		if modelWinner != measWinner {
			t.Errorf("q6 sel=%.3f: model winner %s, measured winner %s",
				db.Selectivity(tab, tc.q), modelWinner, measWinner)
		}
	}

	// --- Q1: HIPE vs HMC crossover ---
	lowQ1 := db.Q01{ShipCut: 100}
	highQ1 := db.Q01{ShipCut: db.ShipDateDays - 1}
	for _, tc := range []struct {
		q    db.Q01
		want query.Arch
	}{
		{lowQ1, query.HIPE},
		{highQ1, query.HMC},
	} {
		hipeEst := estimate(serveQ1Plan(query.HIPE, tc.q))
		hmcEst := estimate(serveQ1Plan(query.HMC, tc.q))
		modelWinner := query.HIPE
		if hmcEst < hipeEst {
			modelWinner = query.HMC
		}
		if modelWinner != tc.want {
			t.Errorf("q1 sel=%.3f: model HIPE-vs-HMC winner %s, want %s (hipe=%.0f hmc=%.0f)",
				db.SelectivityQ1(tab, tc.q), modelWinner, tc.want, hipeEst, hmcEst)
		}
		hipeMeas := measure(t, tab, serveQ1Plan(query.HIPE, tc.q))
		hmcMeas := measure(t, tab, serveQ1Plan(query.HMC, tc.q))
		measWinner := query.HIPE
		if hmcMeas < hipeMeas {
			measWinner = query.HMC
		}
		if modelWinner != measWinner {
			t.Errorf("q1 sel=%.3f: model winner %s, measured winner %s",
				db.SelectivityQ1(tab, tc.q), modelWinner, measWinner)
		}
	}

	// --- x86 DSM competitiveness narrows with selectivity ---
	gap := func(x86, best float64) float64 { return x86 / best }
	for _, tc := range []struct {
		name     string
		lowX86   float64
		lowBest  float64
		highX86  float64
		highBest float64
	}{
		{
			"q6",
			estimate(servePlan(query.X86, lowQ6)), estimate(servePlan(query.HIPE, lowQ6)),
			estimate(servePlan(query.X86, highQ6)), estimate(servePlan(query.HIVE, highQ6)),
		},
		{
			"q1",
			estimate(serveQ1Plan(query.X86, lowQ1)), estimate(serveQ1Plan(query.HIVE, lowQ1)),
			estimate(serveQ1Plan(query.X86, highQ1)), estimate(serveQ1Plan(query.HIVE, highQ1)),
		},
	} {
		low, high := gap(tc.lowX86, tc.lowBest), gap(tc.highX86, tc.highBest)
		if high >= low {
			t.Errorf("%s: x86's estimated gap should narrow with selectivity: low-sel %.1fx, high-sel %.1fx",
				tc.name, low, high)
		}
	}
}

// TestPickDeterministicTies pins the tie-break: equal estimates choose
// the earlier candidate, so routing decisions are reproducible.
func TestPickDeterministicTies(t *testing.T) {
	pr := cost.DefaultParams()
	tab := db.GenerateMemo(1024, 42)
	q := db.DefaultQ06()
	// The same plan twice: identical estimates, first one must win.
	p := servePlan(query.HIVE, q)
	d, err := cost.Pick(pr, tab, []query.Plan{p, p})
	if err != nil {
		t.Fatal(err)
	}
	if d.ChosenIndex != 0 {
		t.Errorf("tie broke to index %d, want 0", d.ChosenIndex)
	}
	if _, err := cost.Pick(pr, tab, nil); err == nil {
		t.Error("Pick accepted an empty candidate list")
	}
}

// TestPickRejectsEveryCandidate pins the errors of the ranking loop
// Pick and PickSharded share: an empty list and a list whose every
// candidate the estimator rejects fail with each function's own text.
func TestPickRejectsEveryCandidate(t *testing.T) {
	pr := cost.DefaultParams()
	tab := db.GenerateMemo(1024, 42)
	shards, err := db.Partition(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := servePlan(query.HIPE, db.DefaultQ06())
	bad.Arch = query.HIPE + 1 // outside the backend table: no estimator prices it
	rejected := []query.Plan{bad, bad}
	for _, tc := range []struct {
		name string
		pick func([]query.Plan) (*cost.Decision, error)
		want string
	}{
		{"pick", func(c []query.Plan) (*cost.Decision, error) { return cost.Pick(pr, tab, c) },
			"cost: no candidate plan fits the workload (2 candidates rejected)"},
		{"sharded", func(c []query.Plan) (*cost.Decision, error) { return cost.PickSharded(pr, shards, c) },
			"cost: no candidate plan fits the sharded workload (2 candidates rejected)"},
	} {
		if d, err := tc.pick(rejected); err == nil || err.Error() != tc.want {
			t.Errorf("%s: every candidate rejected gave %v, %v; want error %q", tc.name, d, err, tc.want)
		}
		if _, err := tc.pick(nil); err == nil || err.Error() != "cost: no candidate plans" {
			t.Errorf("%s: empty candidate list gave error %v", tc.name, err)
		}
	}
	if _, err := cost.PickSharded(pr, nil, []query.Plan{servePlan(query.HIPE, db.DefaultQ06())}); err == nil || err.Error() != "cost: no shards" {
		t.Errorf("PickSharded without shards gave error %v", err)
	}
}

// TestProfileSurvival checks the profiler against a hand-computed
// clustered layout: a date cut at half the range must leave about half
// the chunks alive.
func TestProfileSurvival(t *testing.T) {
	tab := db.GenerateClusteredMemo(4096, 42, 0) // exactly date-ordered
	p := serveQ1Plan(query.HIPE, db.Q01{ShipCut: db.ShipDateDays / 2})
	prof := cost.ProfileFor(tab, p)
	if len(prof.Survival) != 1 {
		t.Fatalf("Q1 profile has %d stages, want 1", len(prof.Survival))
	}
	if s := prof.Survival[0]; s < 0.45 || s > 0.55 {
		t.Errorf("half-range cut on a date-ordered table: survival %.3f, want ~0.5", s)
	}
	if prof.Sel < 0.45 || prof.Sel > 0.55 {
		t.Errorf("selectivity %.3f, want ~0.5", prof.Sel)
	}
	// Uniform table at the same tiny selectivity: nearly every chunk
	// survives (64-tuple chunks almost always hold one match).
	uni := db.GenerateMemo(4096, 42)
	profU := cost.ProfileFor(uni, p)
	if profU.Survival[0] < 0.95 {
		t.Errorf("uniform table survival %.3f, want ~1", profU.Survival[0])
	}
}

// TestEstimatePlanPricesEveryValidPlan: every plan Validate accepts —
// backend × strategy × op size × unroll × fused × aggregate × {Q06,
// Q01} — gets a priced estimate with positive cycles, so a backend
// table row without an estimator fails here rather than in the planner.
func TestEstimatePlanPricesEveryValidPlan(t *testing.T) {
	pr := cost.DefaultParams()
	tab := db.GenerateMemo(4096, 42)
	priced := map[query.Arch]int{}
	for _, b := range query.Backends() {
		for _, strat := range []query.Strategy{query.TupleAtATime, query.ColumnAtATime} {
			for _, op := range []uint32{16, 32, 64, 128, 256} {
				for _, unroll := range []int{1, 8, 32} {
					for _, fused := range []bool{false, true} {
						for _, agg := range []bool{false, true} {
							for _, kind := range []query.QueryKind{query.Q6Select, query.Q1Agg} {
								p := query.Plan{Arch: b.Arch(), Strategy: strat, OpSize: op, Unroll: unroll,
									Fused: fused, Aggregate: agg, Kind: kind}
								if kind == query.Q1Agg {
									p.Q1 = db.DefaultQ01()
								} else {
									p.Q = db.DefaultQ06()
								}
								if p.Validate() != nil {
									continue
								}
								est, err := cost.EstimatePlan(pr, p, cost.ProfileFor(tab, p))
								if err != nil {
									t.Errorf("%s: Validate accepts it but EstimatePlan: %v", p, err)
									continue
								}
								if !(est.Cycles > 0) {
									t.Errorf("%s: estimated %v cycles", p, est.Cycles)
								}
								priced[b.Arch()]++
							}
						}
					}
				}
			}
		}
	}
	for _, b := range query.Backends() {
		if priced[b.Arch()] == 0 {
			t.Errorf("no %s plan validated", b.Name())
		}
	}
	// An architecture outside the table never reaches an estimator.
	bad := query.Plan{Arch: query.HIPE + 1, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: db.DefaultQ06()}
	if _, err := cost.EstimatePlan(pr, bad, cost.ProfileFor(tab, bad)); err == nil {
		t.Errorf("EstimatePlan priced %s", bad)
	}
}
