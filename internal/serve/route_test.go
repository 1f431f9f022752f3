package serve

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// TestAutoQueryRoutesAndVerifies: an ArchAuto request resolves to a
// concrete backend, executes, verifies against the reference, and
// carries the full routing decision in the response.
func TestAutoQueryRoutesAndVerifies(t *testing.T) {
	tab := db.GenerateClusteredMemo(1024, 42, 10)
	c, err := New(sweep.Default(), tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Plan: DefaultPlan(ArchAuto, db.DefaultQ06())}
	resp, err := c.Query(req, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Routing == nil {
		t.Fatal("auto response carries no routing decision")
	}
	if resp.Request.Plan.Auto() {
		t.Fatal("auto request was not resolved")
	}
	if _, ok := query.BackendFor(resp.Request.Plan.Arch); !ok {
		t.Fatalf("resolved to unregistered arch %s", resp.Request.Plan.Arch)
	}
	if resp.Request.Plan != resp.Routing.Chosen {
		t.Errorf("executed plan %s differs from routing decision %s",
			resp.Request.Plan, resp.Routing.Chosen)
	}
	if len(resp.Routing.Estimates) < 2 {
		t.Errorf("routing decision holds %d candidate estimates, want several", len(resp.Routing.Estimates))
	}
	// The answer must be the verified whole-table answer regardless of
	// which backend served it.
	ref := db.Reference(tab, db.DefaultQ06())
	if resp.Matches != ref.Matches || resp.Revenue != ref.Revenue {
		t.Errorf("routed answer (%d, %d) differs from reference (%d, %d)",
			resp.Matches, resp.Revenue, ref.Matches, ref.Revenue)
	}
	// A fixed-architecture request must carry no routing decision.
	fixed, err := c.Query(Request{Plan: DefaultPlan(query.HIPE, db.DefaultQ06())}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Routing != nil {
		t.Error("fixed-arch response unexpectedly carries a routing decision")
	}
}

// TestAutoRoutingDeterministicAcrossWorkers: an auto-routed load test's
// CSV report — routing-decision columns included — is byte-identical
// at 1 worker and at many.
func TestAutoRoutingDeterministicAcrossWorkers(t *testing.T) {
	tab := db.GenerateClusteredMemo(1024, 42, 10)
	reqs, err := StreamSpec{N: 12, Seed: 7, Archs: []query.Arch{ArchAuto}, Q1Every: 4}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		// A fresh cluster per worker count: the route cache must not
		// leak determinism between runs for the comparison to mean
		// anything.
		cl, err := New(sweep.Default(), tab, 2)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.LoadTest(ClosedLoop(reqs, 3), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := render(1)
	many := render(8)
	if one != many {
		t.Fatal("auto-routed CSV reports differ between 1 and 8 workers")
	}
	header := strings.SplitN(one, "\n", 2)[0]
	for _, col := range RoutingCSVHeader() {
		if !strings.Contains(header, col) {
			t.Errorf("routed report header %q missing column %q", header, col)
		}
	}
}

// TestRoutingColumnsOnlyWhenRouted: fixed-architecture reports keep the
// pre-planner schema byte for byte.
func TestRoutingColumnsOnlyWhenRouted(t *testing.T) {
	tab := db.GenerateMemo(1024, 42)
	c, err := New(sweep.Default(), tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := StreamSpec{N: 4, Seed: 7, Archs: []query.Arch{query.HIPE}}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.LoadTest(ClosedLoop(reqs, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if strings.Contains(header, "routed") {
		t.Errorf("fixed-arch report header gained routing columns: %q", header)
	}
	if rep.HasRouting() {
		t.Error("fixed-arch report claims routed requests")
	}
}

// TestAutoResolutionRespectsShardEnvelope: when the shards are too
// large for the engine backends' Q01 accumulator bound, the router must
// resolve among the remaining backends instead of failing.
func TestAutoResolutionRespectsShardEnvelope(t *testing.T) {
	// 1 shard × 16384 rows at 256 B ops: 256 chunks — fine for the
	// engines. Validate the small case resolves to SOME backend, then
	// check the oversized case trims them.
	small := db.GenerateMemo(1024, 42)
	c, err := New(sweep.Default(), small, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Plan: DefaultQ1Plan(ArchAuto, db.DefaultQ01())}
	resolved, _, d, err := c.resolve(req, c.costParams())
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Plan.Auto() || d == nil {
		t.Fatal("Q1 auto request did not resolve")
	}
	// An engine plan needs chunks <= 2025; 64-tuple chunks put the
	// limit at 129600 rows. A 132096-row single shard excludes HIVE
	// and HIPE, so resolution must land on x86 or HMC.
	big := db.GenerateMemo(132096, 42)
	cBig, err := New(sweep.Default(), big, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, dBig, err := cBig.resolve(req, cBig.costParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range dBig.Estimates {
		if est.Plan.Arch == query.HIVE || est.Plan.Arch == query.HIPE {
			t.Errorf("oversized shard still offered engine candidate %s", est.Plan)
		}
	}
	if a := dBig.Chosen.Arch; a != query.X86 && a != query.HMC {
		t.Errorf("oversized shard routed to %s, want x86 or hmc", a)
	}
}

// TestRoutedBackendMatchesMeasuredFastest is the serving-layer
// acceptance gate: across a selectivity sweep grid on the cluster, the
// backend the ArchAuto router picks must match the backend with the
// lowest measured service time on at least 90% of cells.
func TestRoutedBackendMatchesMeasuredFastest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the selectivity grid on the cluster")
	}
	// 1024-row shards: the scale the cost model is calibrated at. At
	// toy shard sizes (a few hundred rows) fixed overheads dominate and
	// near-ties between the engine backends flip below the model's
	// resolution.
	tab := db.GenerateClusteredMemo(4096, 42, 10)
	c, err := New(sweep.Default(), tab, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 4}
	archs := []query.Arch{query.X86, query.HMC, query.HIVE, query.HIPE}

	type cell struct {
		auto  Request
		fixed func(query.Arch) Request
	}
	var cells []cell
	base := db.DefaultQ06()
	for _, qty := range []int32{1, 10, 24, 50} {
		q := base
		q.QtyHi = qty
		cells = append(cells, cell{
			auto:  Request{Plan: DefaultPlan(ArchAuto, q)},
			fixed: func(a query.Arch) Request { return Request{Plan: DefaultPlan(a, q)} },
		})
	}
	wide := db.Q06{ShipLo: 0, ShipHi: db.ShipDateDays, DiscLo: 0, DiscHi: 10, QtyHi: 51}
	cells = append(cells, cell{
		auto:  Request{Plan: DefaultPlan(ArchAuto, wide)},
		fixed: func(a query.Arch) Request { return Request{Plan: DefaultPlan(a, wide)} },
	})
	for _, cut := range []int32{100, 800, 1800, 2556} {
		q := db.Q01{ShipCut: cut}
		cells = append(cells, cell{
			auto:  Request{Plan: DefaultQ1Plan(ArchAuto, q)},
			fixed: func(a query.Arch) Request { return Request{Plan: DefaultQ1Plan(a, q)} },
		})
	}

	agree := 0
	for i, cl := range cells {
		resp, err := c.Query(cl.auto, opt)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		var bestArch query.Arch
		var bestCycles uint64
		for _, a := range archs {
			r, err := c.Query(cl.fixed(a), opt)
			if err != nil {
				t.Fatalf("cell %d arch %s: %v", i, a, err)
			}
			if bestCycles == 0 || r.Cycles < bestCycles {
				bestCycles, bestArch = r.Cycles, a
			}
		}
		if resp.Request.Plan.Arch == bestArch {
			agree++
		} else {
			t.Logf("cell %d: routed to %s, measured best %s (%d cycles)",
				i, resp.Request.Plan.Arch, bestArch, bestCycles)
		}
	}
	frac := float64(agree) / float64(len(cells))
	t.Logf("cluster routing agreement: %d/%d = %.0f%%", agree, len(cells), 100*frac)
	if frac < 0.9 {
		t.Errorf("router matched the measured-fastest backend on %.0f%% of cells, want >= 90%%", 100*frac)
	}
}
