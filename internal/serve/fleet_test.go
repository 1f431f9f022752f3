package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

func testFleet(t *testing.T, nShards int, pools ...query.Arch) *Fleet {
	t.Helper()
	f, err := NewFleet(sweep.Default(), testTable(), nShards, pools)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// testClassStream draws an auto-routed stream carrying admission
// classes, the shape fleet tests route and shed.
func testClassStream(t *testing.T, n, classes int) []Request {
	t.Helper()
	reqs, err := StreamSpec{
		N: n, Seed: 11, Archs: []query.Arch{ArchAuto}, Classes: classes,
	}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestNewFleetRejectsBadPools(t *testing.T) {
	tab := testTable()
	if _, err := NewFleet(sweep.Default(), tab, 2, nil); err == nil {
		t.Fatal("empty pool list accepted")
	}
	if _, err := NewFleet(sweep.Default(), tab, 2, []query.Arch{query.HIPE, ArchAuto}); err == nil {
		t.Fatal("auto pool accepted")
	}
	if _, err := NewFleet(sweep.Default(), tab, 2, []query.Arch{query.Arch(0x42)}); err == nil {
		t.Fatal("unregistered backend accepted as a pool")
	}
}

// TestFleetFixedArchRouting: a fixed-architecture request may only land
// on pools pinned to that architecture, and is refused when no pool is.
func TestFleetFixedArchRouting(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.X86)
	resp, err := f.Query(Request{Plan: DefaultPlan(query.X86, testStream(t, 1)[0].Plan.Q)}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Pool == nil || resp.Pool.Pool != 1 || resp.Pool.Arch != query.X86.String() {
		t.Fatalf("fixed x86 request routed to %+v, want pool 1 (x86)", resp.Pool)
	}
	if err := f.Admit(Request{Plan: DefaultPlan(query.HMC, testStream(t, 1)[0].Plan.Q)}); err == nil {
		t.Fatal("request for an architecture no pool pins was admitted")
	}
	if err := f.Admit(Request{Plan: DefaultPlan(query.HIPE, testStream(t, 1)[0].Plan.Q), Class: -1}); err == nil {
		t.Fatal("negative class admitted")
	}
}

// TestFleetQueueAwareBalancing: two replicas of the same backend must
// split back-to-back identical arrivals — the second pick pays the
// first's backlog and flips to the idle replica.
func TestFleetQueueAwareBalancing(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.HIPE)
	req := Request{Plan: DefaultPlan(query.HIPE, testStream(t, 1)[0].Plan.Q)}
	reqs := []Request{req, req, req, req}
	// Mean gap 1 cycle: every arrival sees the previous one still
	// queued, so routing must alternate pools.
	rep, err := f.LoadTest(OpenLoop(reqs, 1, 0, 3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pools[0].Requests == 0 || rep.Pools[1].Requests == 0 {
		t.Fatalf("back-to-back arrivals did not split across replicas: %+v", rep.Pools)
	}
	if rep.Requests[0].Pool.Pool == rep.Requests[1].Pool.Pool {
		t.Fatalf("second arrival stayed on the backed-up replica %d", rep.Requests[0].Pool.Pool)
	}
	for _, tr := range rep.Requests {
		if tr.Routing == nil || len(tr.Routing.QueueCycles) != 2 {
			t.Fatalf("request %d: queue penalties not recorded on the decision", tr.Index)
		}
	}
}

// fleetSpecs returns the Poisson and trace-driven open-loop specs the
// determinism tests replay.
func fleetSpecs(t *testing.T) map[string]LoadSpec {
	t.Helper()
	reqs := testClassStream(t, 24, 2)
	classes := []ClassSpec{
		{Name: "batch", SLOCycles: 2_000_000, PatienceCycles: 500_000},
		{Name: "interactive", SLOCycles: 800_000},
	}
	poisson := OpenLoop(reqs, 120_000, 0, 9)
	poisson.Classes = classes
	poisson.Shed = true
	trace := TraceLoop(reqs, TraceSpec{
		Mean:          120_000,
		DiurnalPeriod: 4_000_000,
		DiurnalAmp:    0.6,
		BurstFactor:   3,
		BurstOn:       400_000,
		BurstOff:      1_200_000,
	}, 0, 9)
	trace.Classes = classes
	trace.Shed = true
	return map[string]LoadSpec{"poisson": poisson, "trace": trace}
}

// TestFleetReportDeterministicAcrossWorkerCounts is the tentpole
// acceptance check: fleet reports — CSV and JSON — are byte-identical
// at 1, 2, 8 and GOMAXPROCS executor workers for both Poisson and
// trace-driven arrivals.
func TestFleetReportDeterministicAcrossWorkerCounts(t *testing.T) {
	for name, spec := range fleetSpecs(t) {
		t.Run(name, func(t *testing.T) {
			f := testFleet(t, 2, query.HIPE, query.X86, query.HMC)
			var wantCSV, wantJSON []byte
			for _, workers := range []int{1, 2, 8, runtime.GOMAXPROCS(0)} {
				rep, err := f.LoadTest(spec, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var csvBuf, jsonBuf bytes.Buffer
				if err := rep.WriteCSV(&csvBuf); err != nil {
					t.Fatal(err)
				}
				if err := rep.WriteJSON(&jsonBuf); err != nil {
					t.Fatal(err)
				}
				if wantCSV == nil {
					wantCSV, wantJSON = csvBuf.Bytes(), jsonBuf.Bytes()
					if rep.Shed == 0 && name == "trace" {
						t.Log("trace spec shed nothing; burst overload may be under-sized")
					}
					continue
				}
				if !bytes.Equal(csvBuf.Bytes(), wantCSV) {
					t.Fatalf("CSV differs at %d workers", workers)
				}
				if !bytes.Equal(jsonBuf.Bytes(), wantJSON) {
					t.Fatalf("JSON differs at %d workers", workers)
				}
			}
		})
	}
}

// TestFleetShedImprovesHighClassAttainment is the admission-control
// acceptance pin: under a 2x-overload trace, shedding low-patience
// batch work must leave the premium class with strictly better SLO
// attainment than the unsheded baseline. The test self-calibrates to
// the simulated service time, so it holds on any timing model.
func TestFleetShedImprovesHighClassAttainment(t *testing.T) {
	f := testFleet(t, 2, query.HIPE)
	reqs := testClassStream(t, 60, 3)
	// Calibrate: S is one representative request's idle critical path.
	resp, err := f.Query(reqs[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := resp.Cycles
	classes := []ClassSpec{
		{Name: "batch", SLOCycles: 8 * s, PatienceCycles: s},
		{Name: "normal", SLOCycles: 6 * s, PatienceCycles: 2 * s},
		{Name: "premium", SLOCycles: 4 * s}, // zero patience: never shed
	}
	trace := TraceSpec{Mean: s / 2, DiurnalPeriod: 64 * s, DiurnalAmp: 0.3}
	run := func(shed bool) *Report {
		spec := TraceLoop(reqs, trace, 0, 17)
		spec.Classes = classes
		spec.Shed = shed
		rep, err := f.LoadTest(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base, shed := run(false), run(true)
	if base.Shed != 0 {
		t.Fatalf("baseline shed %d requests with shedding disabled", base.Shed)
	}
	if shed.Shed == 0 {
		t.Fatal("2x overload shed nothing")
	}
	if got := shed.Classes[2].Shed; got != 0 {
		t.Fatalf("premium class shed %d requests despite zero patience", got)
	}
	if shed.Classes[0].Shed == 0 {
		t.Fatal("lowest-patience batch class shed nothing under overload")
	}
	b, p := base.Classes[2].Attainment, shed.Classes[2].Attainment
	if p <= b {
		t.Fatalf("premium attainment %.3f with shedding, %.3f without — shedding must improve it", p, b)
	}
}

// TestFleetLoadTestHighConcurrency hammers one fleet from several
// concurrent load tests at full executor width — the race detector's
// target — and checks every caller still gets the identical report.
func TestFleetLoadTestHighConcurrency(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.X86)
	spec := fleetSpecs(t)["poisson"]
	opt := Options{Workers: runtime.GOMAXPROCS(0)}
	const callers = 4
	outs := make([][]byte, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := f.LoadTest(spec, opt)
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				errs[i] = err
				return
			}
			outs[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], outs[0]) {
			t.Fatalf("caller %d produced a different report", i)
		}
	}
}

// TestFleetClosedLoop: the closed-loop discipline works over replicas
// too — every request completes, pools share the work, and class rows
// account for every completion.
func TestFleetClosedLoop(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.X86)
	reqs := testClassStream(t, 16, 2)
	spec := ClosedLoop(reqs, 4)
	spec.Classes = []ClassSpec{{Name: "a", SLOCycles: 1_000_000}, {Name: "b"}}
	rep, err := f.LoadTest(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(reqs) || rep.Concurrency != 4 {
		t.Fatalf("completed %d concurrency %d, want %d/4", rep.Completed, rep.Concurrency, len(reqs))
	}
	total := 0
	for _, p := range rep.Pools {
		total += p.Requests
	}
	if total != len(reqs) {
		t.Fatalf("pool request counts sum to %d, want %d", total, len(reqs))
	}
	done := 0
	for _, cs := range rep.Classes {
		done += cs.Completed
	}
	if done != len(reqs) {
		t.Fatalf("class completions sum to %d, want %d", done, len(reqs))
	}
	// Closed mode cannot shed.
	spec.Shed = true
	if _, err := f.LoadTest(spec, Options{Workers: 1}); err == nil {
		t.Fatal("closed-loop shedding accepted")
	}
}

// TestFleetQueryRecordsRouting: every fleet answer carries the loaded
// decision and the pool pick, and still verifies against the cluster
// path's answer for the same plan.
func TestFleetQueryRecordsRouting(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.X86, query.HMC)
	req := testClassStream(t, 1, 0)[0]
	resp, err := f.Query(req, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Routing == nil || resp.Pool == nil {
		t.Fatal("fleet answer missing routing or pool pick")
	}
	if len(resp.Routing.Estimates) != 3 {
		t.Fatalf("decision carries %d candidates, want 3", len(resp.Routing.Estimates))
	}
	if resp.Pool.EstCycles != resp.Routing.Estimates[resp.Routing.ChosenIndex].Cycles {
		t.Fatal("pool pick's estimate disagrees with the decision")
	}
	want, err := f.Cluster.Query(Request{Plan: resp.Request.Plan}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Matches != want.Matches || resp.Revenue != want.Revenue {
		t.Fatalf("fleet answer %d/%d, cluster answer %d/%d",
			resp.Matches, resp.Revenue, want.Matches, want.Revenue)
	}
}

// TestClusterLoadTestRejectsFleetFields: classes and shedding need the
// replicated fleet; the single-replica path refuses them loudly, and
// with no declared classes it refuses any request class but 0.
func TestClusterLoadTestRejectsFleetFields(t *testing.T) {
	c := testCluster(t, 2)
	spec := OpenLoop(testStream(t, 4), 1000, 0, 1)
	spec.Classes = []ClassSpec{{Name: "a"}}
	if _, err := c.LoadTest(spec, Options{Workers: 1}); err == nil {
		t.Fatal("cluster load test accepted admission classes")
	}
	spec = OpenLoop(testStream(t, 4), 1000, 0, 1)
	spec.Shed = true
	if _, err := c.LoadTest(spec, Options{Workers: 1}); err == nil {
		t.Fatal("cluster load test accepted shedding")
	}
	for _, class := range []int{3, -1} {
		reqs := testStream(t, 4)
		reqs[2].Class = class
		_, err := c.LoadTest(OpenLoop(reqs, 1000, 0, 1), Options{Workers: 1})
		if want := fmt.Sprintf("class %d outside", class); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("cluster load test with undeclared class %d: err %v, want %q", class, err, want)
		}
	}
}

// TestFleetClassStreamsClassless pins the decorrelation contract: the
// class knob must not disturb any other field of the stream.
func TestFleetClassStreamsClassless(t *testing.T) {
	with, err := StreamSpec{N: 12, Seed: 5, Classes: 3}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	without, err := StreamSpec{N: 12, Seed: 5}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := range with {
		if with[i].Plan != without[i].Plan {
			t.Fatalf("request %d: class knob changed the plan", i)
		}
		if with[i].Class < 0 || with[i].Class >= 3 {
			t.Fatalf("request %d: class %d outside [0, 3)", i, with[i].Class)
		}
		seen[with[i].Class] = true
		if without[i].Class != 0 {
			t.Fatalf("request %d: classless stream drew class %d", i, without[i].Class)
		}
	}
	if len(seen) < 2 {
		t.Fatal("class draw is not mixing")
	}
}

// TestFleetRequestClassOutOfRange: a class the spec never declared is
// rejected before any simulation runs.
func TestFleetRequestClassOutOfRange(t *testing.T) {
	f := testFleet(t, 2, query.HIPE)
	reqs := testClassStream(t, 2, 0)
	reqs[1].Class = 7
	spec := OpenLoop(reqs, 1000, 0, 1)
	spec.Classes = []ClassSpec{{Name: "only"}}
	_, err := f.LoadTest(spec, Options{Workers: 1})
	if err == nil {
		t.Fatal("out-of-range class accepted")
	}
	if want := fmt.Sprintf("class %d outside", 7); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not name the class", err)
	}
}
