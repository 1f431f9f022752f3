package serve

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

func testCluster(t *testing.T, nShards int) *Cluster {
	t.Helper()
	c, err := New(sweep.Default(), testTable(), nShards)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// countLegs returns opt with an OnTask that counts the shard legs a
// call runs into *n.
func countLegs(opt Options, n *int) Options {
	opt.OnTask = func(int, int) { *n++ }
	return opt
}

// checkSimulated fails t unless a call ran legs > 0 shard legs, as
// many as the first call of its series, whose count *first records.
// The determinism tests use it to show that every run they compare was
// simulated, not served from a cluster's memo of verified legs.
func checkSimulated(t *testing.T, legs int, first *int) {
	t.Helper()
	switch {
	case legs == 0:
		t.Fatal("the call simulated no shard leg")
	case *first == 0:
		*first = legs
	case legs != *first:
		t.Fatalf("the call simulated %d shard legs, the series' first %d", legs, *first)
	}
}

// exports renders r's CSV and JSON exports.
func exports(t *testing.T, r *Report) (csvOut, jsonOut []byte) {
	t.Helper()
	var c, j bytes.Buffer
	if err := r.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	return c.Bytes(), j.Bytes()
}

func testStream(t *testing.T, n int) []Request {
	t.Helper()
	reqs, err := StreamSpec{N: n, Seed: 7, Aggregate: true}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestStreamSpecDeterministicAndMixed(t *testing.T) {
	a := testStream(t, 16)
	b := testStream(t, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical specs", i)
		}
	}
	// Architectures cycle round-robin; quantity bounds stay in the set.
	seenQty := map[int32]bool{}
	for i, r := range a {
		if want := []query.Arch{query.X86, query.HMC, query.HIVE, query.HIPE}[i%4]; r.Plan.Arch != want {
			t.Fatalf("request %d arch %s, want %s", i, r.Plan.Arch, want)
		}
		if r.Plan.Arch == query.HIPE && !r.Plan.Aggregate {
			t.Fatalf("request %d: HIPE request not upgraded to aggregation", i)
		}
		seenQty[r.Plan.Q.QtyHi] = true
	}
	if len(seenQty) < 2 {
		t.Fatal("stream is not selectivity-mixed")
	}
	if _, err := (StreamSpec{N: 0}).Requests(); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestReportDeterministicAcrossWorkerCounts is the satellite acceptance
// check: a load-test report — CSV and JSON — is byte-identical at 1, 2,
// 8 and GOMAXPROCS executor workers, for both load disciplines. Each
// run gets a fresh cluster, so each one simulates its legs.
func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	reqs := testStream(t, 8)
	specs := map[string]LoadSpec{
		"open":   OpenLoop(reqs, 200000, 0, 99),
		"closed": ClosedLoop(reqs, 3),
	}
	for name, spec := range specs {
		var wantCSV, wantJSON []byte
		var firstLegs int
		for _, workers := range []int{1, 2, 8, runtime.GOMAXPROCS(0)} {
			var legs int
			r, err := testCluster(t, 4).LoadTest(spec, countLegs(Options{Workers: workers}, &legs))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			checkSimulated(t, legs, &firstLegs)
			csvOut, jsonOut := exports(t, r)
			if wantCSV == nil {
				wantCSV, wantJSON = csvOut, jsonOut
				continue
			}
			if !bytes.Equal(csvOut, wantCSV) {
				t.Fatalf("%s: CSV differs at %d workers", name, workers)
			}
			if !bytes.Equal(jsonOut, wantJSON) {
				t.Fatalf("%s: JSON differs at %d workers", name, workers)
			}
		}
	}
}

func TestOpenLoopTimeline(t *testing.T) {
	c := testCluster(t, 2)
	reqs := testStream(t, 6)
	// Huge interarrival gaps: the fleet is idle at each arrival, so
	// every latency must equal the request's idle-fleet service time.
	idle, err := c.LoadTest(OpenLoop(reqs, 1<<40, 0, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range idle.Requests {
		if tr.Latency != tr.Service {
			t.Fatalf("idle fleet queued: request %d latency %d, service %d",
				tr.Index, tr.Latency, tr.Service)
		}
		if tr.Client != -1 {
			t.Fatalf("open-loop trace carries client %d", tr.Client)
		}
	}
	// Back-to-back arrivals: queueing must push tail latency above the
	// idle fleet's.
	slam, err := c.LoadTest(OpenLoop(reqs, 1, 0, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if slam.LatencyP99 <= idle.LatencyP99 {
		t.Fatalf("overload P99 %d not above idle P99 %d", slam.LatencyP99, idle.LatencyP99)
	}
	if slam.MakespanCycles >= idle.MakespanCycles {
		t.Fatal("overloaded makespan should be shorter than the idle-spread one")
	}
}

func TestClosedLoopTimeline(t *testing.T) {
	c := testCluster(t, 2)
	reqs := testStream(t, 9)
	r, err := c.LoadTest(ClosedLoop(reqs, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Concurrency != 3 || r.Completed != 9 || r.Offered != 9 {
		t.Fatalf("report header wrong: %+v", r)
	}
	// Each client keeps exactly one request outstanding: its next
	// arrival is its previous completion, and arrivals are globally
	// nondecreasing.
	lastCompletion := map[int]uint64{}
	var prevArrival uint64
	for _, tr := range r.Requests {
		if tr.Arrival < prevArrival {
			t.Fatalf("request %d arrives before its predecessor", tr.Index)
		}
		prevArrival = tr.Arrival
		if c, ok := lastCompletion[tr.Client]; ok && tr.Arrival != c {
			t.Fatalf("client %d: arrival %d != previous completion %d", tr.Client, tr.Arrival, c)
		}
		lastCompletion[tr.Client] = tr.Completion
		if tr.Latency != tr.Completion-tr.Arrival {
			t.Fatalf("request %d latency inconsistent", tr.Index)
		}
	}
	// Shard accounting: every request visits every shard; busy cycles
	// fit inside the makespan.
	for _, s := range r.PerShard {
		if s.Tasks != len(reqs) {
			t.Fatalf("shard %d served %d of %d tasks", s.Shard, s.Tasks, len(reqs))
		}
		if s.BusyCycles > r.MakespanCycles {
			t.Fatalf("shard %d busy %d beyond makespan %d", s.Shard, s.BusyCycles, r.MakespanCycles)
		}
		if s.Utilisation <= 0 || s.Utilisation > 1 {
			t.Fatalf("shard %d utilisation %f", s.Shard, s.Utilisation)
		}
	}
	if r.ThroughputRPMC <= 0 || r.LatencyP50 == 0 || r.LatencyMax < r.LatencyP50 {
		t.Fatalf("degenerate aggregate figures: %+v", r)
	}
	// More clients must not lower throughput on this saturated fleet.
	r1, err := c.LoadTest(ClosedLoop(reqs, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MakespanCycles > r1.MakespanCycles {
		t.Fatalf("3 clients slower (%d) than 1 client (%d)", r.MakespanCycles, r1.MakespanCycles)
	}
}

func TestOpenLoopDurationTruncatesStream(t *testing.T) {
	c := testCluster(t, 2)
	reqs := testStream(t, 8)
	full, err := c.LoadTest(OpenLoop(reqs, 1000, 0, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Cut the duration at the 4th arrival: the tail must be dropped but
	// still counted as offered.
	cut := full.Requests[3].Arrival
	r, err := c.LoadTest(OpenLoop(reqs, 1000, cut, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 3 || r.Offered != 8 {
		t.Fatalf("completed %d offered %d, want 3/8", r.Completed, r.Offered)
	}
	if _, err := c.LoadTest(OpenLoop(reqs, 1000, 1, 3), Options{}); err == nil {
		t.Fatal("duration admitting no request should error")
	}
}

func TestLoadSpecValidation(t *testing.T) {
	c := testCluster(t, 2)
	reqs := testStream(t, 4)
	cases := []LoadSpec{
		{},
		OpenLoop(reqs, 0, 0, 1),
		ClosedLoop(reqs, 0),
		{Requests: reqs, Mode: Mode(9)},
	}
	for i, spec := range cases {
		if _, err := c.LoadTest(spec, Options{}); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
	bad := reqs
	bad[0].Plan.OpSize = 7
	if _, err := c.LoadTest(ClosedLoop(bad, 1), Options{}); err == nil {
		t.Fatal("invalid request admitted into load test")
	}
}

func TestLoadTestProgressCallback(t *testing.T) {
	c := testCluster(t, 2)
	reqs := testStream(t, 4)
	var calls, lastDone, total int
	_, err := c.LoadTest(ClosedLoop(reqs, 2), Options{
		Workers: 2,
		OnTask: func(done, tot int) {
			calls++
			lastDone, total = done, tot
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One simulation per distinct (plan, shard) pair.
	distinct := map[query.Plan]bool{}
	for _, r := range reqs {
		distinct[r.Plan] = true
	}
	want := len(distinct) * c.Shards()
	if calls != want || lastDone != want || total != want {
		t.Fatalf("progress: %d calls, last %d/%d, want %d", calls, lastDone, total, want)
	}
}

func TestLoadTestMemoisesRepeatedPlans(t *testing.T) {
	c := testCluster(t, 2)
	// The same plan issued five times must simulate once per shard, yet
	// the timeline still schedules every request.
	req := Request{Plan: DefaultPlan(query.HIPE, db.DefaultQ06())}
	reqs := []Request{req, req, req, req, req}
	var tasks int
	r, err := c.LoadTest(ClosedLoop(reqs, 2), Options{
		OnTask: func(done, total int) { tasks = total },
	})
	if err != nil {
		t.Fatal(err)
	}
	if tasks != c.Shards() {
		t.Fatalf("%d simulations for 1 distinct plan on %d shards", tasks, c.Shards())
	}
	if r.Completed != len(reqs) || r.PerShard[0].Tasks != len(reqs) {
		t.Fatalf("memoisation leaked into scheduling: %+v", r)
	}
	// Identical requests have identical service times; a lone client
	// therefore sees identical latencies.
	solo, err := c.LoadTest(ClosedLoop(reqs, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range solo.Requests {
		if tr.Latency != solo.Requests[0].Latency {
			t.Fatalf("identical requests served with different latencies: %+v", solo.Requests)
		}
	}
	// The cluster memoises verified exact legs across calls: the same
	// load test again simulates nothing, and its exports equal the first
	// run's and a fresh cluster's byte for byte.
	firstCSV, firstJSON := exports(t, r)
	again, err := c.LoadTest(ClosedLoop(reqs, 2), Options{
		OnTask: func(int, int) { t.Error("a memoised leg ran again") },
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := testCluster(t, 2).LoadTest(ClosedLoop(reqs, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	againCSV, againJSON := exports(t, again)
	freshCSV, freshJSON := exports(t, fresh)
	if !bytes.Equal(againCSV, firstCSV) || !bytes.Equal(againJSON, firstJSON) {
		t.Fatal("a memoised load test's exports differ from the first run's")
	}
	if !bytes.Equal(againCSV, freshCSV) || !bytes.Equal(againJSON, freshJSON) {
		t.Fatal("a memoised load test's exports differ from a fresh cluster's")
	}
}

func TestQueryProgressCallback(t *testing.T) {
	c := testCluster(t, 4)
	var calls, total int
	_, err := c.Query(Request{Plan: DefaultPlan(query.HIPE, db.DefaultQ06())}, Options{
		OnTask: func(done, tot int) {
			calls++
			total = tot
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != c.Shards() || total != c.Shards() {
		t.Fatalf("query progress %d calls of %d, want %d", calls, total, c.Shards())
	}
}

func TestReadJSONRoundTrip(t *testing.T) {
	c := testCluster(t, 2)
	r, err := c.LoadTest(ClosedLoop(testStream(t, 4), 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Completed != r.Completed || back.LatencyP99 != r.LatencyP99 ||
		len(back.Requests) != len(r.Requests) {
		t.Fatal("JSON round trip lost data")
	}
	if s := r.Summary(); len(s) == 0 || !bytes.Contains([]byte(s), []byte("latency p50/p95/p99")) {
		t.Fatalf("summary malformed:\n%s", s)
	}
}
