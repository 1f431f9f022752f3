package serve

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// misCalibrate skews the cost model so the processor path looks k×
// cheaper and the engine path k× dearer than calibration (or the
// reverse), without touching the simulator — the shape of model drift
// the feedback loop exists to absorb.
func misCalibrate(p cost.Params, k float64, cheapCPU bool) cost.Params {
	up, down := k, 1/k
	if !cheapCPU {
		up, down = down, up
	}
	p.EngineSlot *= up
	p.EngineMem *= up
	p.SquashPipelined *= up
	p.SquashSerial *= up
	p.PredPipelined *= up
	p.PredSerial *= up
	p.HMCRoundTripBase *= up
	p.HMCRoundTripPerB *= up
	p.CacheMiss *= down
	p.CPUOp *= down
	p.CPUVecOp *= down
	p.MispredictPenalty *= down
	return p
}

func sumService(rep *Report) uint64 {
	var total uint64
	for i := range rep.Requests {
		total += rep.Requests[i].Service
	}
	return total
}

// TestFleetAdaptiveBeatsStaticWhenMisCalibrated is the PR's acceptance
// pin: on a clustered panel whose cost model is deliberately
// mis-calibrated — the analytically "cheapest" pool is measurably the
// slowest — feedback-driven routing must strictly reduce both the total
// replay cycles and the premium class's P99 latency versus static
// ArchAuto routing, because the observed-cycles EWMA overrides the
// wrong prior within a few samples while static routing keeps paying
// for it on every request.
func TestFleetAdaptiveBeatsStaticWhenMisCalibrated(t *testing.T) {
	tab := db.GenerateClusteredMemo(512, 42, 10)
	f, err := NewFleet(sweep.Default(), tab, 2, []query.Arch{query.HIPE, query.X86})
	if err != nil {
		t.Fatal(err)
	}
	q := db.DefaultQ06()

	// Measure each pool's real idle critical path for the panel shape.
	measure := func(arch query.Arch) float64 {
		t.Helper()
		resp, err := f.Query(Request{Plan: DefaultPlan(arch, q)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return float64(resp.Cycles)
	}
	rHIPE, rX86 := measure(query.HIPE), measure(query.X86)
	fastArch, slowArch, rFast, rSlow := query.HIPE, query.X86, rHIPE, rX86
	if rX86 < rHIPE {
		fastArch, slowArch, rFast, rSlow = query.X86, query.HIPE, rX86, rHIPE
	}
	if rSlow < 1.5*rFast {
		t.Fatalf("panel pools too close to separate: %s %.0f vs %s %.0f cycles",
			fastArch, rFast, slowArch, rSlow)
	}
	planFast := DefaultPlan(fastArch, q)
	planSlow := DefaultPlan(slowArch, q)

	// Mis-calibrate: walk the distortion ladder until the model ranks
	// the slow pool cheapest (static mispicks it on every request) while
	// the feedback loop can still recover — the slow pool's blended
	// estimate crosses the fast pool's wrong prior within a dozen
	// samples, and the fast pool's warmed estimate keeps the flip.
	truth := f.params
	calibrated := false
	for _, k := range []float64{1.5, 2, 3, 4, 6, 9, 13, 20} {
		cand := misCalibrate(truth, k, slowArch == query.X86)
		eFast, _, err := cost.EstimateSharded(cand, f.shards, planFast)
		if err != nil {
			t.Fatal(err)
		}
		eSlow, _, err := cost.EstimateSharded(cand, f.shards, planSlow)
		if err != nil {
			t.Fatal(err)
		}
		mispicks := eSlow.Cycles < eFast.Cycles
		canFlip := (4*eSlow.Cycles+12*rSlow)/16 > eFast.Cycles
		staysFlipped := (4*eFast.Cycles+rFast)/5 < rSlow
		if mispicks && canFlip && staysFlipped {
			f.Calibrate(cand)
			calibrated = true
			break
		}
	}
	if !calibrated {
		t.Fatalf("no distortion factor produced a recoverable mispick (real %s %.0f vs %s %.0f)",
			fastArch, rFast, slowArch, rSlow)
	}

	// The panel: one shape at realistic load — the slow pool alone would
	// run at ~2/3 utilisation, so queues matter but don't dominate.
	const n = 48
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Plan: DefaultPlan(ArchAuto, q), Class: i % 2}
	}
	classes := []ClassSpec{
		{Name: "batch", SLOCycles: uint64(8 * rSlow)},
		{Name: "premium", SLOCycles: uint64(4 * rFast)},
	}
	run := func(adaptive *cost.AdaptiveConfig) *Report {
		t.Helper()
		spec := OpenLoop(reqs, uint64(1.5*rSlow), 0, 23)
		spec.Classes = classes
		spec.Adaptive = adaptive
		rep, err := f.LoadTest(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	static := run(nil)
	adaptive := run(&cost.AdaptiveConfig{Seed: 1})

	// Sanity: the mis-calibrated static router must actually mispick.
	slowPicks := 0
	for _, tr := range static.Requests {
		if tr.Plan.Arch == slowArch {
			slowPicks++
		}
	}
	if slowPicks <= n/2 {
		t.Fatalf("static routed only %d/%d requests to the mispredicted pool — panel not mis-calibrated", slowPicks, n)
	}

	// The pin: strictly fewer total replay cycles AND strictly better
	// premium P99.
	sStatic, sAdaptive := sumService(static), sumService(adaptive)
	if sAdaptive >= sStatic {
		t.Errorf("adaptive total replay cycles %d, static %d — adaptive must be strictly cheaper", sAdaptive, sStatic)
	}
	p99Static := static.Classes[1].LatencyP99
	p99Adaptive := adaptive.Classes[1].LatencyP99
	if p99Adaptive >= p99Static {
		t.Errorf("adaptive premium P99 %d, static %d — adaptive must be strictly better", p99Adaptive, p99Static)
	}

	// Provenance: every adaptive pick is marked, and the slow pool's
	// bucket visibly warmed before the flip.
	flipped := false
	for _, tr := range adaptive.Requests {
		if tr.Routing == nil {
			continue
		}
		if tr.Routing.RouteMode != "adaptive" {
			t.Fatalf("request %d routed without adaptive provenance: %+v", tr.Index, tr.Routing)
		}
		if tr.Plan.Arch == fastArch && !tr.Routing.Explored {
			flipped = true
		}
	}
	if !flipped {
		t.Error("adaptive routing never flipped to the truly fast pool")
	}
}

// TestFleetAdaptiveWithinNoiseWhenCalibrated is the no-worse pin: on
// the well-calibrated fleet, feedback routing (including its 1%
// exploration floor) must stay within noise of static routing's total
// replay cycles.
func TestFleetAdaptiveWithinNoiseWhenCalibrated(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.X86, query.HMC)
	reqs := testClassStream(t, 36, 2)
	classes := []ClassSpec{
		{Name: "batch", SLOCycles: 2_000_000},
		{Name: "interactive", SLOCycles: 800_000},
	}
	run := func(adaptive *cost.AdaptiveConfig) *Report {
		t.Helper()
		spec := OpenLoop(reqs, 120_000, 0, 9)
		spec.Classes = classes
		spec.Adaptive = adaptive
		rep, err := f.LoadTest(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	static := run(nil)
	adaptive := run(&cost.AdaptiveConfig{Seed: 3})
	sStatic, sAdaptive := sumService(static), sumService(adaptive)
	if float64(sAdaptive) > 1.10*float64(sStatic) {
		t.Errorf("calibrated-grid adaptive total %d cycles vs static %d — more than 10%% worse", sAdaptive, sStatic)
	}
}

// TestFleetAdaptiveDeterministicAcrossWorkerCounts: adaptive-on fleet
// exports — with exploration firing — are byte-identical at any
// executor worker count, because observations fold in during the
// single-threaded replay and exploration draws are pure functions of
// (seed, request index). Each run gets a fresh fleet, so each one
// simulates its legs.
func TestFleetAdaptiveDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := fleetSpecs(t)["poisson"]
	spec.Adaptive = &cost.AdaptiveConfig{ExplorePct: 10, Seed: 5}
	var wantCSV, wantJSON []byte
	var firstLegs int
	explored := false
	for _, workers := range []int{1, 2, 8, runtime.GOMAXPROCS(0)} {
		f := testFleet(t, 2, query.HIPE, query.X86, query.HMC)
		var legs int
		rep, err := f.LoadTest(spec, countLegs(Options{Workers: workers}, &legs))
		if err != nil {
			t.Fatal(err)
		}
		checkSimulated(t, legs, &firstLegs)
		for _, tr := range rep.Requests {
			if tr.Routing != nil && tr.Routing.Explored {
				explored = true
			}
		}
		csvOut, jsonOut := exports(t, rep)
		if wantCSV == nil {
			wantCSV, wantJSON = csvOut, jsonOut
			continue
		}
		if !bytes.Equal(csvOut, wantCSV) {
			t.Fatalf("adaptive CSV differs at %d workers", workers)
		}
		if !bytes.Equal(jsonOut, wantJSON) {
			t.Fatalf("adaptive JSON differs at %d workers", workers)
		}
	}
	if !explored {
		t.Error("10% exploration floor never fired over the panel — determinism check under-exercised")
	}
}

// TestAdaptiveColumnsOnlyWhenAdaptive pins the export contract:
// adaptive-off reports carry no adaptive columns (so pre-PR exports
// stay byte-identical), and adaptive-on reports append exactly
// route_mode, obs_cycles, bucket_samples, explored after the routing
// block.
func TestAdaptiveColumnsOnlyWhenAdaptive(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.X86)
	reqs := testClassStream(t, 8, 0)
	run := func(adaptive *cost.AdaptiveConfig) string {
		t.Helper()
		spec := OpenLoop(reqs, 120_000, 0, 9)
		spec.Adaptive = adaptive
		rep, err := f.LoadTest(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	static := run(nil)
	if strings.Contains(static, "route_mode") {
		t.Fatal("adaptive-off CSV grew adaptive columns")
	}

	adaptive := run(&cost.AdaptiveConfig{Seed: 2})
	header := strings.SplitN(adaptive, "\n", 2)[0]
	if !strings.Contains(header, "route_mode,obs_cycles,bucket_samples,explored") {
		t.Fatalf("adaptive CSV header lacks the adaptive block: %s", header)
	}
	rows := strings.Split(strings.TrimSpace(adaptive), "\n")[1:]
	marked := 0
	for _, row := range rows {
		if strings.Contains(row, "adaptive") {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no request row carries route_mode=adaptive")
	}

	// Spec validation: a broken adaptive config is rejected up front,
	// and the single-replica cluster path refuses adaptive specs.
	bad := OpenLoop(reqs, 120_000, 0, 9)
	bad.Adaptive = &cost.AdaptiveConfig{ExplorePct: 100}
	if _, err := f.LoadTest(bad, Options{}); err == nil || !strings.Contains(err.Error(), "explore") {
		t.Fatalf("invalid explore percentage accepted: %v", err)
	}
	c := testCluster(t, 2)
	cl := OpenLoop(testStream(t, 4), 120_000, 0, 9)
	cl.Adaptive = &cost.AdaptiveConfig{}
	if _, err := c.LoadTest(cl, Options{}); err == nil || !strings.Contains(err.Error(), "replicated fleet") {
		t.Fatalf("cluster load test accepted an adaptive spec: %v", err)
	}
}

// TestClusterAdaptiveQueryLearns exercises the online Cluster.Query
// loop: with a mis-calibrated model and EnableAdaptive on, repeated
// auto queries must carry adaptive provenance, warm their buckets, and
// converge on a backend strictly cheaper than the mispredicted one.
func TestClusterAdaptiveQueryLearns(t *testing.T) {
	tab := db.GenerateClusteredMemo(512, 42, 10)
	c, err := New(sweep.Default(), tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := db.DefaultQ06()
	measure := func(arch query.Arch) uint64 {
		t.Helper()
		resp, err := c.Query(Request{Plan: DefaultPlan(arch, q)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Cycles
	}
	rHIPE, rX86 := measure(query.HIPE), measure(query.X86)
	slowArch := query.X86
	if rX86 < rHIPE {
		slowArch = query.HIPE
	}
	// Skew the model toward the measurably slower processor-vs-engine
	// side, walking the ladder until the static pick lands on it.
	truth := c.params
	req := Request{Plan: DefaultPlan(ArchAuto, q)}
	var first *Response
	for _, k := range []float64{3, 6, 9, 13, 20} {
		c.Calibrate(misCalibrate(truth, k, slowArch == query.X86))
		if err := c.EnableAdaptive(cost.AdaptiveConfig{Seed: 4}); err != nil {
			t.Fatal(err)
		}
		if first, err = c.Query(req, Options{}); err != nil {
			t.Fatal(err)
		}
		if first.Request.Plan.Arch == slowArch {
			break
		}
	}
	if first.Routing == nil || first.Routing.RouteMode != "adaptive" {
		t.Fatalf("adaptive cluster query carries no adaptive provenance: %+v", first.Routing)
	}
	if first.Request.Plan.Arch != slowArch {
		t.Fatalf("no distortion factor made the cold pick land on %s (last pick %s)",
			slowArch, first.Request.Plan.Arch)
	}
	var last *Response
	for i := 0; i < 24; i++ {
		last, err = c.Query(req, Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Request.Plan.Arch == slowArch {
		t.Fatalf("after 25 observed queries the router still picks the mispredicted %s", slowArch)
	}
	if last.Cycles >= first.Cycles {
		t.Errorf("learning did not reduce replay cycles: first %d, settled %d", first.Cycles, last.Cycles)
	}
	samples := last.Routing.BucketSamples
	var warmed uint64
	for _, n := range samples {
		warmed += n
	}
	if warmed == 0 {
		t.Error("bucket samples never recorded on the decision")
	}
}

// TestClusterLoadTestIgnoresOnlineAdaptiveState: EnableAdaptive's state
// serves online Query calls only. A cluster with it on writes the same
// load-test CSV and JSON as a fresh cluster, and neither LoadTest nor
// Admit advances its exploration sequence; a Query does.
func TestClusterLoadTestIgnoresOnlineAdaptiveState(t *testing.T) {
	tab := db.GenerateClusteredMemo(512, 42, 10)
	newCluster := func() *Cluster {
		t.Helper()
		c, err := New(sweep.Default(), tab, 2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	reqs, err := StreamSpec{N: 24, Seed: 5, Archs: []query.Arch{ArchAuto}}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	spec, opt := ClosedLoop(reqs, 3), Options{Workers: 2, Exec: sweep.ExecEstimate}
	want, err := newCluster().LoadTest(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster()
	if err := c.EnableAdaptive(cost.AdaptiveConfig{Seed: 4, ExplorePct: 50}); err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadTest(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotCSV, gotJSON := exports(t, got)
	wantCSV, wantJSON := exports(t, want)
	if !bytes.Equal(gotCSV, wantCSV) || !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("the load test read the online adaptive state: CSV %d bytes, a fresh cluster's %d", len(gotCSV), len(wantCSV))
	}
	if seq := c.adapt.seq; seq != 0 {
		t.Errorf("the load test advanced the online exploration sequence to %d", seq)
	}
	for _, req := range reqs[:3] {
		if err := c.Admit(req); err != nil {
			t.Fatal(err)
		}
	}
	if seq := c.adapt.seq; seq != 0 {
		t.Errorf("Admit advanced the online exploration sequence to %d", seq)
	}
	resp, err := c.Query(reqs[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	if c.adapt.seq != 1 || resp.Routing.RouteMode != "adaptive" {
		t.Errorf("an online query left the sequence at %d with route mode %q", c.adapt.seq, resp.Routing.RouteMode)
	}
}
