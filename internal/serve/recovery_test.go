package serve

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/fault"
	"github.com/hipe-sim/hipe/internal/query"
)

// calibrate returns one representative request's idle critical path —
// the service-time unit the fault tests scale every duration by, so
// the pins hold on any timing model.
func calibrate(t *testing.T, f *Fleet, req Request) uint64 {
	t.Helper()
	resp, err := f.Query(req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Cycles
}

// TestFleetFaultRecovery is the chaos acceptance pin: a mid-run replica
// crash under 2x overload, with retries + timeouts + failover on, must
// keep the premium class's SLO attainment above the pinned floor and
// strictly beat the recovery-off baseline (same faults, no recovery
// policy: requests park behind the dead replica).
func TestFleetFaultRecovery(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.HIPE)
	reqs := testClassStream(t, 120, 3)
	s := calibrate(t, f, reqs[0])
	// The schedule: pool 1 dies outright mid-run, and both pools keep
	// suffering occasional stochastic outages longer than the premium
	// SLO. Fault-blind routing parks a request behind each fresh
	// outage; health-aware failover routes around them.
	faults := &fault.Spec{
		Seed:       5,
		CrashEvery: 20 * s, CrashDown: 5 * s,
		Crashes: []fault.Crash{{Pool: 1, At: 5 * s, Down: 10 * s}},
	}
	classes := func(timeout uint64) []ClassSpec {
		return []ClassSpec{
			{Name: "batch", SLOCycles: 8 * s, PatienceCycles: s, TimeoutCycles: timeout},
			{Name: "normal", SLOCycles: 6 * s, PatienceCycles: 2 * s, TimeoutCycles: timeout},
			{Name: "premium", SLOCycles: 4 * s, TimeoutCycles: timeout}, // never shed
		}
	}
	run := func(rec *RecoverySpec, timeout uint64) *Report {
		spec := OpenLoop(reqs, s/2, 0, 17)
		spec.Classes = classes(timeout)
		spec.Shed = true
		spec.Faults = faults
		spec.Recovery = rec
		rep, err := f.LoadTest(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(nil, 0)
	// The timeout sits at the largest class SLO: it only ever fires on
	// attempts that are already doomed (parked behind the outage), so
	// cancel-and-retry can rescue coverage without manufacturing new
	// SLO misses.
	rec := run(&RecoverySpec{
		MaxRetries:    2,
		BackoffCycles: s / 16,
		Failover:      true,
	}, 8*s)

	if base.Faults == nil || rec.Faults == nil {
		t.Fatal("faulted reports missing fault totals")
	}
	if rec.Faults.Failovers == 0 {
		t.Fatal("failover routing never routed around the dead replica")
	}
	b, p := base.Classes[2].Attainment, rec.Classes[2].Attainment
	if p <= b {
		t.Fatalf("premium attainment %.3f with recovery, %.3f without — recovery must improve it", p, b)
	}
	// The pinned floor: recovery keeps the premium class serviceable
	// through the outages.
	if p < 0.9 {
		t.Fatalf("premium attainment %.3f with recovery, want >= 0.9", p)
	}
}

// TestFleetFaultFreeByteIdentical: a disabled (zero) fault spec must
// leave the whole report byte-identical to a plain fleet run — the
// healthy path of the one dispatcher, with no recovery rendering.
func TestFleetFaultFreeByteIdentical(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.X86)
	spec := fleetSpecs(t)["poisson"]
	plain, err := f.LoadTest(spec, Options{Workers: 2, Counters: true})
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = &fault.Spec{} // declared but disabled
	disabled, err := f.LoadTest(spec, Options{Workers: 2, Counters: true})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := plain.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := disabled.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("zero fault spec changed the report")
	}
	var csv bytes.Buffer
	if err := plain.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.SplitN(csv.String(), "\n", 2)[0], "coverage") {
		t.Fatal("fault columns leaked into a fault-free CSV header")
	}
}

// TestFleetRecoveryPathMatchesLegacyWhenHealthy: with a recovery policy
// declared but no faults and no timeouts, the recovery dispatch must
// reproduce the legacy replay's timeline exactly — same pools, same
// completions, same shed set.
func TestFleetRecoveryPathMatchesLegacyWhenHealthy(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.X86, query.HMC)
	spec := fleetSpecs(t)["poisson"]
	legacy, err := f.LoadTest(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec.Recovery = &RecoverySpec{MaxRetries: 3, BackoffCycles: 100}
	rec, err := f.LoadTest(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Faults == nil {
		t.Fatal("recovering run missing fault totals")
	}
	if legacy.Completed != rec.Completed || legacy.Shed != rec.Shed {
		t.Fatalf("healthy recovery replay served %d/shed %d, legacy %d/%d",
			rec.Completed, rec.Shed, legacy.Completed, legacy.Shed)
	}
	for i := range legacy.Requests {
		l, r := legacy.Requests[i], rec.Requests[i]
		if l.Completion != r.Completion || l.Pool.Pool != r.Pool.Pool {
			t.Fatalf("request %d: healthy recovery replay (pool %d, completion %d) diverged from legacy (pool %d, completion %d)",
				l.Index, r.Pool.Pool, r.Completion, l.Pool.Pool, l.Completion)
		}
		if r.Attempts != 1 || r.Degraded || r.Coverage != 1 {
			t.Fatalf("request %d: healthy run recorded attempts=%d degraded=%v coverage=%g",
				l.Index, r.Attempts, r.Degraded, r.Coverage)
		}
	}
}

// TestFleetHedgeWinsOverCrashedPrimary: a crash that kills the primary
// attempt mid-flight must let the hedge's second-pool attempt supply
// the completion.
func TestFleetHedgeWinsOverCrashedPrimary(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.HIPE)
	req := testClassStream(t, 1, 0)[0]
	s := calibrate(t, f, req)
	// Closed loop, one client: the request dispatches at exactly t=0,
	// so the scheduled crash window lands mid-service.
	spec := ClosedLoop([]Request{req}, 1)
	spec.Classes = []ClassSpec{{Name: "only", HedgeCycles: s / 4}}
	// Pool 0 (the idle-fleet tie-break pick) dies mid-service.
	spec.Faults = &fault.Spec{Crashes: []fault.Crash{{Pool: 0, At: s / 2, Down: 10 * s}}}
	spec.Recovery = &RecoverySpec{Hedge: true}
	rep, err := f.LoadTest(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.CrashKills == 0 {
		t.Fatal("scheduled crash killed nothing")
	}
	if rep.Faults.Hedges != 1 || rep.Faults.HedgeWins != 1 {
		t.Fatalf("hedges/wins = %d/%d, want 1/1", rep.Faults.Hedges, rep.Faults.HedgeWins)
	}
	tr := rep.Requests[0]
	if !tr.HedgeWon || tr.Degraded {
		t.Fatalf("trace hedgeWon=%v degraded=%v, want hedge win, no degradation", tr.HedgeWon, tr.Degraded)
	}
	if tr.Pool.Pool != 1 {
		t.Fatalf("winning pool %d, want the hedge pool 1", tr.Pool.Pool)
	}
	if tr.Coverage != 1 || tr.ErrRevenue != 0 {
		t.Fatalf("hedge-recovered request coverage %g err %g, want exact answer", tr.Coverage, tr.ErrRevenue)
	}
}

// TestFleetFailoverAvoidsDownPool: with the whole of pool 0 down on
// arrival, failover must route to the healthy replica immediately;
// the recovery-off baseline parks behind the outage instead.
func TestFleetFailoverAvoidsDownPool(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.HIPE)
	req := testClassStream(t, 1, 0)[0]
	s := calibrate(t, f, req)
	faults := &fault.Spec{Crashes: []fault.Crash{{Pool: 0, At: 0, Down: 20 * s}}}
	run := func(rec *RecoverySpec) *Report {
		spec := ClosedLoop([]Request{req}, 1)
		spec.Faults = faults
		spec.Recovery = rec
		rep, err := f.LoadTest(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	parked := run(nil)
	failed := run(&RecoverySpec{Failover: true})
	if parked.Requests[0].Completion < 20*s {
		t.Fatalf("recovery-off request completed at cycle %d; it should have parked behind the outage ending at %d",
			parked.Requests[0].Completion, 20*s)
	}
	if failed.Faults.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", failed.Faults.Failovers)
	}
	if got := failed.Requests[0].Pool.Pool; got != 1 {
		t.Fatalf("failover routed to pool %d, want 1", got)
	}
	if failed.Requests[0].Latency >= parked.Requests[0].Latency {
		t.Fatal("failover did not improve latency over parking")
	}
}

// TestFleetDegradedPartialResults: when the retry budget runs out the
// request must degrade with exact coverage and error accounting, and
// the degraded request must count as an SLO miss however fast it gave
// up.
func TestFleetDegradedPartialResults(t *testing.T) {
	f := testFleet(t, 2, query.HIPE)
	req := testClassStream(t, 1, 0)[0]
	s := calibrate(t, f, req)
	spec := OpenLoop([]Request{req}, s, 0, 3)
	// One pool, fully down for the whole horizon, a timeout far below
	// the outage: the only attempt can never start, so the request
	// degrades with zero coverage.
	spec.Classes = []ClassSpec{{Name: "only", SLOCycles: 100 * s, TimeoutCycles: s}}
	spec.Faults = &fault.Spec{Crashes: []fault.Crash{{Pool: 0, At: 0, Down: 50 * s}}}
	rep, err := f.LoadTest(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != 1 || rep.Faults.Degraded != 1 {
		t.Fatalf("degraded totals %d/%d, want 1/1", rep.Degraded, rep.Faults.Degraded)
	}
	tr := rep.Requests[0]
	if !tr.Degraded || tr.Coverage != 0 || tr.Matches != 0 || tr.Revenue != 0 {
		t.Fatalf("zero-coverage degradation recorded %+v", tr)
	}
	if tr.ErrMatches != 1 || tr.ErrRevenue != 1 {
		t.Fatalf("relative errors %g/%g, want 1/1 against a non-zero reference", tr.ErrMatches, tr.ErrRevenue)
	}
	cs := rep.Classes[0]
	if cs.Degraded != 1 || cs.MeanCoverage != 0 {
		t.Fatalf("class row %+v, want 1 degraded with mean coverage 0", cs)
	}
	// The request returned within the (generous) SLO bound, but a
	// partial answer is a miss by definition.
	if tr.Latency > cs.SLOCycles {
		t.Fatalf("test premise broken: degraded latency %d above the SLO bound", tr.Latency)
	}
	if cs.Attained != 0 || cs.Attainment != 0 {
		t.Fatalf("degraded request attained the SLO: %+v", cs)
	}
	// The CSV gains the fault columns, and the degraded row reads
	// false SLO attainment plus its coverage.
	var csv bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(csv.String(), "\n", 2)[0]
	for _, col := range FaultCSVHeader() {
		if !strings.Contains(header, col) {
			t.Fatalf("faulted CSV header %q missing column %q", header, col)
		}
	}
}

// TestFleetDegradedCoverageConsistency: across a faulted overloaded
// run, every request's coverage sits in [0, 1], full coverage implies
// exact answers, and the class rows' mean coverage reproduces the
// per-request mean exactly.
func TestFleetDegradedCoverageConsistency(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.HIPE)
	reqs := testClassStream(t, 40, 2)
	s := calibrate(t, f, reqs[0])
	spec := OpenLoop(reqs, s/2, 0, 29)
	spec.Classes = []ClassSpec{
		{Name: "a", SLOCycles: 6 * s, TimeoutCycles: 2 * s},
		{Name: "b", SLOCycles: 4 * s, TimeoutCycles: 2 * s},
	}
	spec.Faults = &fault.Spec{
		Seed:       11,
		CrashEvery: 8 * s, CrashDown: 4 * s,
		StraggleEvery: 6 * s, StraggleFor: 3 * s, StraggleFactor: 4,
	}
	spec.Recovery = &RecoverySpec{MaxRetries: 1, BackoffCycles: s / 8, Failover: true}
	rep, err := f.LoadTest(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded == 0 {
		t.Fatal("hostile schedule degraded nothing; the consistency sweep needs degraded requests")
	}
	covSum := make([]float64, len(rep.Classes))
	n := make([]int, len(rep.Classes))
	for _, tr := range rep.Requests {
		if tr.Coverage < 0 || tr.Coverage > 1 {
			t.Fatalf("request %d coverage %g outside [0, 1]", tr.Index, tr.Coverage)
		}
		if tr.Coverage == 1 && (tr.ErrMatches != 0 || tr.ErrRevenue != 0) {
			t.Fatalf("request %d: full coverage with errors %g/%g", tr.Index, tr.ErrMatches, tr.ErrRevenue)
		}
		if !tr.Degraded && tr.Coverage != 1 {
			t.Fatalf("request %d: non-degraded with coverage %g", tr.Index, tr.Coverage)
		}
		covSum[tr.Class] += tr.Coverage
		n[tr.Class]++
	}
	for ci, cs := range rep.Classes {
		if n[ci] == 0 {
			continue
		}
		want := covSum[ci] / float64(n[ci])
		if math.Abs(cs.MeanCoverage-want) > 1e-12 {
			t.Fatalf("class %d mean coverage %g, per-request mean %g", ci, cs.MeanCoverage, want)
		}
	}
}

// TestFleetFaultedDeterministicAcrossWorkerCounts extends the
// determinism gate to the fault path: the full faulted, recovering
// report — CSV and JSON — is byte-identical at any executor width.
// Each run gets a fresh fleet, so each one simulates its legs.
func TestFleetFaultedDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := fleetSpecs(t)["poisson"]
	for i := range spec.Classes {
		spec.Classes[i].TimeoutCycles = 600_000
		spec.Classes[i].HedgeCycles = 150_000
	}
	spec.Faults = &fault.Spec{
		Seed:       13,
		CrashEvery: 900_000, CrashDown: 300_000,
		StraggleEvery: 700_000, StraggleFor: 200_000, StraggleFactor: 2.5,
		StallEvery: 500_000, StallFor: 40_000, StallMax: 100_000,
		Crashes: []fault.Crash{{Pool: 1, At: 200_000, Down: 400_000}},
	}
	spec.Recovery = &RecoverySpec{
		MaxRetries: 2, BackoffCycles: 10_000, BackoffCapCycles: 50_000,
		Hedge: true, Failover: true,
	}
	var wantCSV, wantJSON []byte
	var firstLegs int
	for _, workers := range []int{1, 2, 8, runtime.GOMAXPROCS(0)} {
		f := testFleet(t, 2, query.HIPE, query.X86, query.HMC)
		var legs int
		rep, err := f.LoadTest(spec, countLegs(Options{Workers: workers, Counters: true}, &legs))
		if err != nil {
			t.Fatal(err)
		}
		checkSimulated(t, legs, &firstLegs)
		csvOut, jsonOut := exports(t, rep)
		if wantCSV == nil {
			wantCSV, wantJSON = csvOut, jsonOut
			continue
		}
		if !bytes.Equal(csvOut, wantCSV) {
			t.Fatalf("faulted CSV differs at %d workers", workers)
		}
		if !bytes.Equal(jsonOut, wantJSON) {
			t.Fatalf("faulted JSON differs at %d workers", workers)
		}
	}
}

// TestLoadSpecRejectsBadFaultFields: malformed fault and recovery specs
// die in validation, and the single-replica cluster refuses both
// outright.
func TestLoadSpecRejectsBadFaultFields(t *testing.T) {
	f := testFleet(t, 2, query.HIPE)
	reqs := testClassStream(t, 2, 0)
	bad := []LoadSpec{}
	s1 := OpenLoop(reqs, 1000, 0, 1)
	s1.Faults = &fault.Spec{CrashEvery: 100} // no outage duration
	bad = append(bad, s1)
	s2 := OpenLoop(reqs, 1000, 0, 1)
	s2.Recovery = &RecoverySpec{MaxRetries: -1}
	bad = append(bad, s2)
	s3 := OpenLoop(reqs, 1000, 0, 1)
	s3.Recovery = &RecoverySpec{BackoffCycles: 100, BackoffCapCycles: 10}
	bad = append(bad, s3)
	s4 := OpenLoop(reqs, 1000, 0, 1)
	s4.Faults = &fault.Spec{Crashes: []fault.Crash{{Pool: 5, At: 0, Down: 10}}} // outside the fleet
	bad = append(bad, s4)
	for i, spec := range bad {
		if _, err := f.LoadTest(spec, Options{Workers: 1}); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
	c := testCluster(t, 2)
	spec := OpenLoop(testStream(t, 2), 1000, 0, 1)
	spec.Faults = &fault.Spec{CrashEvery: 100, CrashDown: 10}
	if _, err := c.LoadTest(spec, Options{Workers: 1}); err == nil {
		t.Fatal("cluster load test accepted fault injection")
	}
	spec = OpenLoop(testStream(t, 2), 1000, 0, 1)
	spec.Recovery = &RecoverySpec{MaxRetries: 1}
	if _, err := c.LoadTest(spec, Options{Workers: 1}); err == nil {
		t.Fatal("cluster load test accepted a recovery policy")
	}
}

// TestRecoveryGateZeroAlloc pins the healthy path of the one
// dispatcher: booking one request's shard FIFO tasks with a nil
// injector and no deadline must not allocate — the fault and recovery
// machinery costs a fault-free replay nothing.
func TestRecoveryGateZeroAlloc(t *testing.T) {
	c := testCluster(t, 4)
	plan := DefaultPlan(query.HIPE, db.DefaultQ06())
	parts := make([]ShardPartial, 4)
	for s := range parts {
		parts[s] = ShardPartial{Shard: s, Matches: s}
		parts[s].Cycles = uint64(100 + s)
	}
	rp := &replay{
		c:         c,
		report:    &Report{},
		planIndex: map[query.Plan]int{plan: 0},
		byPlan:    [][]ShardPartial{parts},
		free:      [][]uint64{make([]uint64, 4)},
		lanes:     [][]ShardStats{newShardStats(4)},
		slow:      []float64{1},
		done:      make([]bool, 4),
	}
	var at uint64
	allocs := testing.AllocsPerRun(200, func() {
		var cov coverage
		clear(rp.done)
		out := rp.runAttempt("", candidate{plan: plan}, at, 0, &cov)
		if !out.success || cov.rows != c.Rows() {
			t.Fatalf("healthy booking failed: %+v, covered %d rows", out, cov.rows)
		}
		at = out.completion
	})
	if allocs != 0 {
		t.Fatalf("healthy shard-FIFO booking allocates %.1f times per run, want 0", allocs)
	}
}
