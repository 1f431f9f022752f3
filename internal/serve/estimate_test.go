package serve

import (
	"bytes"
	"strings"
	"sync"
	"testing"

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
