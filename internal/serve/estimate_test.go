package serve

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

func estimateTestCluster(t *testing.T) *Cluster {
	t.Helper()
	tab := db.GenerateMemo(4096, 42)
	c, err := New(sweep.Config{Tuples: 4096, Seed: 42}, tab, 4)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEstimateQueryExactAnswers checks the serving estimate path keeps
// answers exact: the merged response passes the whole-table reference
// verification (Query errors otherwise), carries the mode marker, and
// only the cycle figures differ from an exact run.
func TestEstimateQueryExactAnswers(t *testing.T) {
	c := estimateTestCluster(t)
	for _, req := range []Request{
		{Plan: DefaultPlan(query.HIPE, db.DefaultQ06())},
		{Plan: DefaultQ1Plan(query.HIPE, db.DefaultQ01())},
		{Plan: DefaultPlan(query.ArchAuto, db.DefaultQ06())},
	} {
		exact, err := c.Query(req, Options{})
		if err != nil {
			t.Fatalf("exact %s: %v", req.Plan, err)
		}
		est, err := c.Query(req, Options{Exec: sweep.ExecEstimate})
		if err != nil {
			t.Fatalf("estimate %s: %v", req.Plan, err)
		}
		if est.ExecMode != "estimate" {
			t.Errorf("%s: ExecMode = %q, want estimate", req.Plan, est.ExecMode)
		}
		if exact.ExecMode != "" {
			t.Errorf("%s: exact response carries ExecMode %q", req.Plan, exact.ExecMode)
		}
		if est.Matches != exact.Matches || est.Revenue != exact.Revenue {
			t.Errorf("%s: estimate answers (%d, %d) differ from exact (%d, %d)",
				req.Plan, est.Matches, est.Revenue, exact.Matches, exact.Revenue)
		}
		if len(est.Groups) != len(exact.Groups) {
			t.Errorf("%s: group count differs", req.Plan)
		}
		for g := range est.Groups {
			if est.Groups[g] != exact.Groups[g] {
				t.Errorf("%s: group %d differs", req.Plan, g)
			}
		}
		if est.Cycles == 0 {
			t.Errorf("%s: estimate produced zero cycles", req.Plan)
		}
		if (est.Routing == nil) != (exact.Routing == nil) {
			t.Errorf("%s: routing presence differs across modes", req.Plan)
		}
	}
}

// TestEstimateRefusals pins the serving-side hard refusals: estimate
// mode can produce neither machine counters nor machine-replay traces.
func TestEstimateRefusals(t *testing.T) {
	c := estimateTestCluster(t)
	req := Request{Plan: DefaultPlan(query.HIPE, db.DefaultQ06())}
	spec := ClosedLoop([]Request{req}, 1)
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"counters", Options{Exec: sweep.ExecEstimate, Counters: true}, "cannot produce machine counters"},
		{"trace", Options{Exec: sweep.ExecEstimate, Trace: true}, "cannot produce machine-replay traces"},
		{"unknown", Options{Exec: sweep.ExecMode(9)}, "unknown exec mode"},
	}
	for _, tc := range cases {
		if _, err := c.Query(req, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Query %s: got %v, want error containing %q", tc.name, err, tc.want)
		}
		if _, err := c.LoadTest(spec, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("LoadTest %s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	f, err := NewFleet(sweep.Config{Tuples: 4096, Seed: 42}, db.GenerateMemo(4096, 42), 4,
		[]query.Arch{query.HIPE, query.X86})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if _, err := f.Query(req, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Fleet.Query %s: got %v, want error containing %q", tc.name, err, tc.want)
		}
		if _, err := f.LoadTest(spec, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Fleet.LoadTest %s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestEstimateLoadTestReport checks estimate-mode load tests: the
// report carries the mode marker and the exec_mode CSV column, exact
// reports carry neither, and estimate reports are byte-identical at
// any worker count.
func TestEstimateLoadTestReport(t *testing.T) {
	c := estimateTestCluster(t)
	reqs, err := (StreamSpec{N: 12, Seed: 7, Q1Every: 5}).Requests()
	if err != nil {
		t.Fatal(err)
	}
	spec := OpenLoop(reqs, 40_000, 0, 11)

	exact, err := c.LoadTest(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.ExecMode != "" {
		t.Errorf("exact report ExecMode = %q", exact.ExecMode)
	}
	var exactCSV bytes.Buffer
	if err := exact.WriteCSV(&exactCSV); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.SplitN(exactCSV.String(), "\n", 2)[0], "exec_mode") {
		t.Error("exact report CSV grew an exec_mode column")
	}

	var csvs [2]bytes.Buffer
	for i, workers := range []int{1, 7} {
		r, err := c.LoadTest(spec, Options{Exec: sweep.ExecEstimate, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if r.ExecMode != "estimate" {
			t.Fatalf("workers=%d: report ExecMode = %q, want estimate", workers, r.ExecMode)
		}
		if err := r.WriteCSV(&csvs[i]); err != nil {
			t.Fatal(err)
		}
	}
	header := strings.SplitN(csvs[0].String(), "\n", 2)[0]
	if !strings.Contains(header, "exec_mode") {
		t.Errorf("estimate report CSV lacks exec_mode column (header %q)", header)
	}
	if !bytes.Equal(csvs[0].Bytes(), csvs[1].Bytes()) {
		t.Error("estimate-mode report CSV differs across worker counts")
	}
	if !strings.Contains(exact.Summary(), "== open-loop") {
		t.Error("summary lost its header")
	}
}

// TestEstimateFleetLoadTest checks the fleet path: estimate mode runs
// the full admission/routing/replay machinery with cost-model service
// times and marks the report.
func TestEstimateFleetLoadTest(t *testing.T) {
	tab := db.GenerateMemo(4096, 42)
	f, err := NewFleet(sweep.Config{Tuples: 4096, Seed: 42}, tab, 4,
		[]query.Arch{query.HIPE, query.X86})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := (StreamSpec{N: 10, Seed: 3, Archs: []query.Arch{query.ArchAuto}}).Requests()
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.LoadTest(OpenLoop(reqs, 50_000, 0, 5), Options{Exec: sweep.ExecEstimate})
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecMode != "estimate" {
		t.Errorf("fleet report ExecMode = %q, want estimate", r.ExecMode)
	}
	if r.Completed != len(reqs) {
		t.Errorf("completed %d of %d", r.Completed, len(reqs))
	}
	if !r.HasFleet() {
		t.Error("report lost its pools")
	}
}

// TestCalibrateDuringEstimateQueries runs Calibrate in a loop while
// estimate-mode auto queries run on a cluster and on a fleet. Routing
// and the estimate legs read the cost model Calibrate writes, so each
// query takes one snapshot under the cluster lock; under -race an
// unlocked read fails the test. Every answer must still verify.
func TestCalibrateDuringEstimateQueries(t *testing.T) {
	tab := db.GenerateMemo(1024, 42)
	c, err := New(sweep.Config{Tuples: 1024, Seed: 42}, tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(sweep.Config{Tuples: 1024, Seed: 42}, tab, 2, []query.Arch{query.HIPE, query.X86})
	if err != nil {
		t.Fatal(err)
	}
	truth := c.costParams()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := truth
			if i%2 == 0 {
				p = misCalibrate(truth, 3, true)
			}
			c.Calibrate(p)
			f.Calibrate(p)
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	opt := Options{Exec: sweep.ExecEstimate, Workers: 2}
	for i := range 30 {
		q := db.DefaultQ06()
		q.QtyHi = int32(10 + i%3*14)
		for _, run := range []func(Request, Options) (*Response, error){c.Query, f.Query} {
			if _, err := run(Request{Plan: DefaultPlan(ArchAuto, q)}, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCalibrateLeavesNoStaleEstimate: a caller that snapshots the cost
// model, loses the race to Calibrate and then prices, prices with its
// own snapshot but stores nothing, so every later caller — the fleet's
// candidates and a cluster's resolve alike — reads the new model's
// estimate.
func TestCalibrateLeavesNoStaleEstimate(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.X86)
	p := DefaultPlan(query.HIPE, db.DefaultQ06())
	old := f.costParams()
	drift := misCalibrate(old, 9, true)
	f.Calibrate(drift)
	stale, _, err := f.estimate(p, old)
	if err != nil {
		t.Fatal(err)
	}
	wantOld, _, err := cost.EstimateSharded(old, f.shards, p)
	if err != nil {
		t.Fatal(err)
	}
	if stale != wantOld {
		t.Fatalf("a stale snapshot priced %+v, its own model %+v", stale, wantOld)
	}
	want, _, err := cost.EstimateSharded(drift, f.shards, p)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cycles == stale.Cycles {
		t.Fatal("the drifted model prices the plan as the old one did")
	}
	got, _, err := f.estimate(p, f.costParams())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after a stale caller, the fleet prices %s at %g cycles, the new model %g", p, got.Cycles, want.Cycles)
	}
	// With the new model's estimate memoised, a stale caller still
	// prices with its own snapshot.
	if again, _, err := f.estimate(p, old); err != nil || again != wantOld {
		t.Fatalf("a stale snapshot read %+v (error %v) from the memo, its own model %+v", again, err, wantOld)
	}

	c := testCluster(t, 2)
	auto := Request{Plan: DefaultPlan(ArchAuto, db.DefaultQ06())}
	c.Calibrate(drift)
	if _, _, _, err := c.resolve(auto, old); err != nil {
		t.Fatal(err)
	}
	_, _, d, err := c.resolve(auto, c.costParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Estimates {
		want, _, err := cost.EstimateSharded(drift, c.shards, e.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if e != want {
			t.Errorf("after a stale resolve, the cluster routes %s at %g cycles, the new model %g", e.Plan, e.Cycles, want.Cycles)
		}
	}
}

// TestFleetLoadTestsDuringCalibrate runs fleet load tests while another
// goroutine calibrates the fleet among three models. Each load test
// prices with its own snapshot, and one that a Calibrate overtook must
// store nothing: afterwards, one more load test writes the same CSV as
// a fresh fleet calibrated to the final model. Under -race it also
// checks the memo's locking.
func TestFleetLoadTestsDuringCalibrate(t *testing.T) {
	tab := db.GenerateMemo(1024, 42)
	pools := []query.Arch{query.HIPE, query.X86, query.HMC}
	newFleet := func() *Fleet {
		t.Helper()
		f, err := NewFleet(sweep.Config{Tuples: 1024, Seed: 42}, tab, 2, pools)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	reqs, err := StreamSpec{N: 60, Seed: 13, Archs: []query.Arch{ArchAuto, query.HIPE},
		QtyHi: []int32{6, 10, 14, 18, 24, 30, 40, 50}, Q1Every: 5}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	spec, opt := ClosedLoop(reqs, 2), Options{Workers: 2, Exec: sweep.ExecEstimate}
	truth := newFleet().costParams()
	models := []cost.Params{truth, misCalibrate(truth, 3, true), misCalibrate(truth, 3, false)}
	// Each model's reference CSV comes from a fresh fleet calibrated to it.
	wantCSV := make([][]byte, len(models))
	for i, m := range models {
		ref := newFleet()
		ref.Calibrate(m)
		r, err := ref.LoadTest(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		wantCSV[i], _ = exports(t, r)
	}
	for round := range 12 {
		f := newFleet()
		var wg sync.WaitGroup
		done := make(chan struct{})
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, err := f.LoadTest(spec, opt); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		// Calibrations spaced out over several load tests, ending on the
		// round's model at an arbitrary point of one.
		final := round % len(models)
		for i := range 30 {
			time.Sleep(50 * time.Microsecond)
			f.Calibrate(models[(final+1+i)%len(models)])
		}
		close(done)
		wg.Wait()
		r, err := f.LoadTest(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := exports(t, r); !bytes.Equal(got, wantCSV[final]) {
			t.Fatalf("round %d: after load tests raced Calibrate, the fleet's CSV differs from a fresh fleet's under the final model", round)
		}
	}
}
