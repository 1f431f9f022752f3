package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// The tests below pin the cluster's memo of verified exact shard legs
// (Cluster.legs): what it keys on, what it never stores, and that what
// it hands out is the caller's own.

func responseJSON(t *testing.T, resp *Response) []byte {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCountersOnAfterCountersOffMatchesFresh: a leg run without
// counters cannot serve a call that asks for them, nor the other way
// round. Either report equals a fresh cluster's.
func TestCountersOnAfterCountersOffMatchesFresh(t *testing.T) {
	spec := ClosedLoop(testStream(t, 8), 2)
	fresh := func(counters bool) []byte {
		t.Helper()
		r, err := testCluster(t, 2).LoadTest(spec, Options{Counters: counters})
		if err != nil {
			t.Fatal(err)
		}
		_, out := exports(t, r)
		return out
	}
	c := testCluster(t, 2)
	for _, counters := range []bool{false, true, false, true} {
		r, err := c.LoadTest(spec, Options{Counters: counters})
		if err != nil {
			t.Fatal(err)
		}
		if _, got := exports(t, r); !bytes.Equal(got, fresh(counters)) {
			t.Fatalf("counters=%v report after the other setting differs from a fresh cluster's", counters)
		}
	}
}

// TestCalibrateKeepsExactLegsRepricesEstimates: Calibrate leaves exact
// service times alone, so an exact load test after it simulates nothing
// and reports what it reported before; an estimate-mode load test
// prices every leg again under the new model, as a fresh cluster
// calibrated the same way does.
func TestCalibrateKeepsExactLegsRepricesEstimates(t *testing.T) {
	spec := ClosedLoop(testStream(t, 8), 2)
	estimate := Options{Exec: sweep.ExecEstimate}
	c := testCluster(t, 2)
	run := func(c *Cluster, opt Options) []byte {
		t.Helper()
		r, err := c.LoadTest(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := exports(t, r)
		return out
	}
	exactBefore := run(c, Options{})
	estBefore := run(c, estimate)

	drift := misCalibrate(c.costParams(), 3, true)
	c.Calibrate(drift)
	exactAfter := run(c, Options{
		OnTask: func(int, int) { t.Error("Calibrate dropped a memoised exact leg") },
	})
	if !bytes.Equal(exactAfter, exactBefore) {
		t.Fatal("exact report changed across Calibrate")
	}
	var legs int
	estAfter := run(c, countLegs(estimate, &legs))
	if legs == 0 {
		t.Fatal("estimate legs were served from the memo")
	}
	other := testCluster(t, 2)
	other.Calibrate(drift)
	if want := run(other, estimate); !bytes.Equal(estAfter, want) {
		t.Fatal("estimate report after Calibrate differs from a fresh cluster calibrated alike")
	}
	if bytes.Equal(estAfter, estBefore) {
		t.Fatal("estimate report ignored the new cost model")
	}
}

// TestQueryResponseIsTheCallersOwn: a response's shard partials may be
// edited freely — group aggregates and counter snapshots included —
// without reaching the memo, on the call that ran the legs and on every
// call served from it.
func TestQueryResponseIsTheCallersOwn(t *testing.T) {
	req := Request{Plan: DefaultQ1Plan(query.HIPE, db.DefaultQ01())}
	opt := Options{Counters: true}
	want, err := testCluster(t, 2).Query(req, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := responseJSON(t, want)
	c := testCluster(t, 2)
	for i := range 3 {
		resp, err := c.Query(req, opt)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := responseJSON(t, resp); !bytes.Equal(got, wantJSON) {
			t.Fatalf("query %d differs from a fresh cluster's", i)
		}
		for s := range resp.Shards {
			sp := &resp.Shards[s]
			if len(sp.Groups) == 0 || sp.Counters.Len() == 0 {
				t.Fatalf("shard %d carries no groups or no counters to edit", s)
			}
			for g := range sp.Groups {
				sp.Groups[g].Count += 1000
			}
			*sp.Counters = obs.Counters{}
		}
	}
}

// TestFailedLegFailsEveryCall: a leg that fails is never stored, so the
// next call runs it again and fails the same way.
func TestFailedLegFailsEveryCall(t *testing.T) {
	mc := machine.Default()
	mc.ImageBytes = 4 << 10 // below any plan's layout for 256-row shards
	c, err := New(sweep.Config{Machine: &mc}, testTable(), 2)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Plan: DefaultPlan(query.HIPE, db.DefaultQ06())}
	for i := range 3 {
		var legs int
		_, err := c.Query(req, countLegs(Options{}, &legs))
		if err == nil || !strings.Contains(err.Error(), "holds 4096") {
			t.Fatalf("call %d: error %v, want the image-size refusal", i, err)
		}
		if legs != c.Shards() {
			t.Fatalf("call %d ran %d legs, want %d", i, legs, c.Shards())
		}
	}
}

// TestConcurrentCallersMatchSequential: four goroutines sharing one
// cluster, each running a load test and a query (in alternating
// order), get exactly what one caller gets on a fresh cluster. Run it
// under -race: the memo is read and filled concurrently.
func TestConcurrentCallersMatchSequential(t *testing.T) {
	spec := ClosedLoop(testStream(t, 8), 2)
	req := Request{Plan: DefaultQ1Plan(query.HIVE, db.DefaultQ01())}
	opt := Options{Workers: 2, Counters: true}
	calls := func(c *Cluster, queryFirst bool) (report, resp []byte, err error) {
		var r *Report
		var q *Response
		if queryFirst {
			if q, err = c.Query(req, opt); err != nil {
				return nil, nil, err
			}
		}
		if r, err = c.LoadTest(spec, opt); err != nil {
			return nil, nil, err
		}
		if !queryFirst {
			if q, err = c.Query(req, opt); err != nil {
				return nil, nil, err
			}
		}
		var b bytes.Buffer
		if err := r.WriteJSON(&b); err != nil {
			return nil, nil, err
		}
		qb, err := json.Marshal(q)
		return b.Bytes(), qb, err
	}
	wantReport, wantResp, err := calls(testCluster(t, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, 2)
	const callers = 4
	reports, resps := make([][]byte, callers), make([][]byte, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], resps[i], errs[i] = calls(c, i%2 == 1)
		}()
	}
	wg.Wait()
	for i := range callers {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(reports[i], wantReport) {
			t.Fatalf("caller %d: load-test report differs from the sequential one", i)
		}
		if !bytes.Equal(resps[i], wantResp) {
			t.Fatalf("caller %d: query response differs from the sequential one", i)
		}
	}
}
