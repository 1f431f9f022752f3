package serve

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/fault"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// admitStream mixes, over one Q06 predicate, auto-routed plain and
// Aggregate plans — equal but for Aggregate — with fixed HIPE plain and
// Aggregate plans, a second predicate and an auto Q01 plan, in two
// classes.
func admitStream(n int) []Request {
	q := db.DefaultQ06()
	narrow := q
	narrow.QtyHi = 10
	agg := func(p query.Plan) query.Plan { p.Aggregate = true; return p }
	plans := []query.Plan{
		DefaultPlan(ArchAuto, q),
		agg(DefaultPlan(ArchAuto, q)),
		DefaultQ1Plan(ArchAuto, db.DefaultQ01()),
		DefaultPlan(query.HIPE, q),
		agg(DefaultPlan(query.HIPE, q)),
		DefaultPlan(ArchAuto, narrow),
	}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Plan: plans[(i*7/3)%len(plans)], Class: i % 2}
	}
	return reqs
}

// admitSpecs are the load tests the admission memo must not change:
// shed classes, faults recovered by retries, hedging and failover,
// adaptive routing, a closed loop, and the faulted spec in estimate
// mode.
func admitSpecs() map[string]struct {
	spec LoadSpec
	opt  Options
} {
	reqs := admitStream(60)
	classes := []ClassSpec{
		{Name: "batch", SLOCycles: 20_000, PatienceCycles: 3_000, TimeoutCycles: 20_000, HedgeCycles: 6_000},
		{Name: "rt", SLOCycles: 15_000, TimeoutCycles: 20_000, HedgeCycles: 6_000},
	}
	shed := OpenLoop(reqs, 500, 0, 9)
	shed.Classes, shed.Shed = classes, true
	faulted := OpenLoop(reqs, 3_000, 0, 9)
	faulted.Classes, faulted.Shed = classes, true
	faulted.Faults = &fault.Spec{Seed: 7,
		Crashes:    []fault.Crash{{Pool: 0, At: 20_000, Down: 30_000}},
		CrashEvery: 60_000, CrashDown: 15_000,
		StraggleEvery: 30_000, StraggleFor: 10_000, StraggleFactor: 3,
		StallEvery: 20_000, StallFor: 2_000, StallMax: 6_000}
	faulted.Recovery = &RecoverySpec{MaxRetries: 2, BackoffCycles: 5_000,
		BackoffCapCycles: 40_000, Hedge: true, Failover: true}
	adaptive := OpenLoop(reqs, 3_000, 0, 9)
	adaptive.Classes = classes
	adaptive.Adaptive = &cost.AdaptiveConfig{ExplorePct: 10, HalfLife: 4, Seed: 11}
	closed := ClosedLoop(reqs, 3)
	closed.Classes = classes
	exact := Options{Workers: 2, Counters: true, Trace: true}
	return map[string]struct {
		spec LoadSpec
		opt  Options
	}{
		"shed":     {shed, exact},
		"faulted":  {faulted, exact},
		"adaptive": {adaptive, exact},
		"closed":   {closed, exact},
		"estimate": {faulted, Options{Workers: 2, Exec: sweep.ExecEstimate}},
	}
}

// checkAdmissionMemo fails t unless memo, a load test admitting each
// distinct request plan once (admitOnce), wrote the same CSV, JSON and
// span CSV as fresh, the same replay admitting every request afresh,
// and HIPE served the shared predicate of admitStream both with and
// without Aggregate, so a memo that merged the two would show.
func checkAdmissionMemo(t *testing.T, memo, fresh *Report) {
	t.Helper()
	gotCSV, gotJSON := exports(t, memo)
	wantCSV, wantJSON := exports(t, fresh)
	var gotSpans, wantSpans bytes.Buffer
	if err := memo.WriteSpanCSV(&gotSpans); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteSpanCSV(&wantSpans); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what      string
		got, want []byte
	}{{"CSV", gotCSV, wantCSV}, {"JSON", gotJSON, wantJSON}, {"span CSV", gotSpans.Bytes(), wantSpans.Bytes()}} {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s differs with the admission memo", c.what)
		}
	}
	aggregate := map[bool]bool{}
	for _, tr := range memo.Requests {
		if tr.Plan.Arch == query.HIPE && tr.Plan.Kind == query.Q6Select && tr.Plan.Q == db.DefaultQ06() {
			aggregate[tr.Plan.Aggregate] = true
		}
	}
	if !aggregate[false] || !aggregate[true] {
		t.Errorf("HIPE served the shared predicate with Aggregate in %v only", aggregate)
	}
}

// TestFleetAdmissionMemoMatchesPerRequest: Fleet.LoadTest, which admits
// each distinct request plan once and shares its candidate list, writes
// the same CSV, JSON and span CSV as the same replay admitting every
// request afresh — for shed classes, faults and recovery, adaptive
// routing, a closed loop and estimate mode.
func TestFleetAdmissionMemoMatchesPerRequest(t *testing.T) {
	f := testFleet(t, 4, query.HIPE, query.X86, query.HMC)
	for name, tc := range admitSpecs() {
		t.Run(name, func(t *testing.T) {
			memo, err := f.LoadTest(tc.spec, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := f.loadTest(tc.spec, tc.opt, f.costParams(), f.pools, f.admit)
			if err != nil {
				t.Fatal(err)
			}
			checkAdmissionMemo(t, memo, fresh)
			switch name {
			case "shed":
				if memo.Shed == 0 {
					t.Error("the shed spec shed nothing")
				}
			case "faulted", "estimate":
				fs := memo.Faults
				if fs.Retries == 0 || fs.Hedges == 0 || fs.Failovers == 0 || fs.CrashKills+fs.StallDelays+fs.Straggles == 0 {
					t.Errorf("the faulted spec left a mechanism idle: %+v", *fs)
				}
			case "adaptive":
				if !memo.HasAdaptive() {
					t.Error("the adaptive spec routed nothing adaptively")
				}
			}
		})
	}
}

// TestClusterAdmissionMemoMatchesPerRequest: Cluster.LoadTest, which
// admits and routes each distinct request plan once, writes the same
// CSV, JSON and span CSV as the same replay admitting every request
// afresh — open and closed loops, estimate mode, and counters with the
// tracer on, over a stream that mixes auto, fixed, Aggregate and Q01
// plans.
func TestClusterAdmissionMemoMatchesPerRequest(t *testing.T) {
	c := testCluster(t, 4)
	reqs := admitStream(60)
	for i := range reqs {
		// A cluster serves one admission class.
		reqs[i].Class = 0
	}
	open, closed := OpenLoop(reqs, 3_000, 0, 9), ClosedLoop(reqs, 3)
	for name, tc := range map[string]struct {
		spec LoadSpec
		opt  Options
	}{
		"open":     {open, Options{Workers: 2}},
		"closed":   {closed, Options{Workers: 2}},
		"estimate": {open, Options{Workers: 2, Exec: sweep.ExecEstimate}},
		"counters": {closed, Options{Workers: 2, Counters: true, Trace: true}},
	} {
		t.Run(name, func(t *testing.T) {
			memo, err := c.LoadTest(tc.spec, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := c.loadTest(tc.spec, tc.opt, c.costParams(), nil, c.admit)
			if err != nil {
				t.Fatal(err)
			}
			checkAdmissionMemo(t, memo, fresh)
			if !memo.HasRouting() {
				t.Error("no auto request was routed")
			}
		})
	}
}

// TestClusterLoadTestDoNotAllocatePerRequest: a warm cluster's load
// test allocates as often at 1,000 requests as at 250, in exact and in
// estimate mode — the requests of one plan share one admission, one
// candidate list and one routing decision. It counts allocations, not
// bytes: the report's trace slice is sized to the request count.
func TestClusterLoadTestDoNotAllocatePerRequest(t *testing.T) {
	c, err := New(sweep.Default(), db.GenerateClusteredMemo(4096, 42, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := StreamSpec{N: 1_000, Seed: 3, Archs: []query.Arch{ArchAuto, query.HIPE}, Q1Every: 4}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{Workers: 1}, {Workers: 1, Exec: sweep.ExecEstimate}} {
		allocs := func(n int) float64 {
			spec := ClosedLoop(reqs[:n], 1)
			run := func() {
				// The runtime publishes small allocations at its next
				// collection, so each run starts with one: otherwise a
				// collection inside one size's runs counts allocations made
				// before them.
				runtime.GC()
				if _, err := c.LoadTest(spec, opt); err != nil {
					t.Fatal(err)
				}
			}
			return testing.AllocsPerRun(3, run)
		}
		if small, large := allocs(250), allocs(1_000); small != large {
			t.Errorf("%s load test allocates %v times at 250 requests, %v at 1,000", opt.Exec, small, large)
		}
	}
}

// TestFleetDecisionsShareListEstimates: every routing decision of a
// fleet load test keeps its candidate list's one estimate slice.
// Requests of one plan share it, requests of different plans do not,
// and it holds the candidates' estimates in pool order — for shed
// classes, faults with hedging and failover, adaptive routing, a
// closed loop and estimate mode.
func TestFleetDecisionsShareListEstimates(t *testing.T) {
	f := testFleet(t, 4, query.HIPE, query.X86, query.HMC)
	pr := f.costParams()
	for name, tc := range admitSpecs() {
		t.Run(name, func(t *testing.T) {
			r, err := f.LoadTest(tc.spec, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			byPlan := map[query.Plan]*cost.Estimate{}
			planOf := map[*cost.Estimate]query.Plan{}
			for _, tr := range r.Requests {
				req := tc.spec.Requests[tr.Index]
				cands, err := f.candidates(req, pr, f.pools)
				if err != nil {
					t.Fatal(err)
				}
				ests := tr.Routing.Estimates
				if len(ests) != len(cands) {
					t.Fatalf("request %d: %d estimates for %d candidates", tr.Index, len(ests), len(cands))
				}
				for i, c := range cands {
					if ests[i] != c.est {
						t.Fatalf("request %d: estimate %d is %+v, candidate %+v", tr.Index, i, ests[i], c.est)
					}
				}
				first := &ests[0]
				if prev, ok := byPlan[req.Plan]; ok && prev != first {
					t.Fatalf("request %d keeps its own copy of plan %s's estimates", tr.Index, req.Plan)
				}
				if p, ok := planOf[first]; ok && p != req.Plan {
					t.Fatalf("request %d shares plan %s's estimates for plan %s", tr.Index, p, req.Plan)
				}
				byPlan[req.Plan], planOf[first] = first, req.Plan
			}
			if len(byPlan) < 2 {
				t.Errorf("only %d distinct plans routed", len(byPlan))
			}
		})
	}
}
