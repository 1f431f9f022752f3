package hipe_test

import (
	"strings"
	"testing"

	hipe "github.com/hipe-sim/hipe"
)

func smallConfig() hipe.Config {
	c := hipe.Default()
	c.Tuples = 1024
	return c
}

func TestPublicAPIQuickstart(t *testing.T) {
	cfg := smallConfig()
	tab := hipe.Generate(cfg.Tuples, cfg.Seed)
	res, err := hipe.Run(cfg, tab, hipe.Plan{
		Arch:     hipe.HIPE,
		Strategy: hipe.ColumnAtATime,
		OpSize:   256,
		Unroll:   32,
		Q:        hipe.DefaultQ06(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Energy.DRAMPJ() <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestPublicAPIFigure(t *testing.T) {
	table, err := hipe.Figure(smallConfig(), "3d")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "hipe/column-at-a-time/256B/32x") {
		t.Fatalf("missing HIPE row:\n%s", table)
	}
	if len(hipe.Figures()) != 4 {
		t.Fatal("figure list wrong")
	}
	if _, err := hipe.Figure(smallConfig(), "9z"); err == nil {
		t.Fatal("bad figure name accepted")
	}
}

func TestPublicAPIDefaults(t *testing.T) {
	if hipe.DefaultMachine().Geometry.Vaults != 32 {
		t.Fatal("machine default wrong")
	}
	if hipe.DefaultEnergy().ReadBitPJ <= 0 {
		t.Fatal("energy default wrong")
	}
	q := hipe.DefaultQ06()
	tab := hipe.Generate(4096, 7)
	sel := hipe.Selectivity(tab, q)
	if sel <= 0 || sel > 0.05 {
		t.Fatalf("selectivity %f", sel)
	}
	plans := hipe.BestPlans(q)
	if len(plans) != 4 {
		t.Fatal("best plans wrong")
	}
}

func TestPublicAPIServe(t *testing.T) {
	cfg := smallConfig()
	tab := hipe.Generate(cfg.Tuples, cfg.Seed)
	cluster, err := hipe.Serve(cfg, tab, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := hipe.ServePlan(hipe.HIPE, hipe.DefaultQ06())
	plan.Aggregate = true
	resp, err := cluster.Query(hipe.ServeRequest{Plan: plan}, hipe.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Matches <= 0 || resp.Revenue <= 0 || resp.Cycles == 0 {
		t.Fatalf("degenerate response %+v", resp)
	}

	reqs, err := hipe.StreamSpec{N: 8, Seed: 3}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	open, err := hipe.LoadTest(cluster, hipe.OpenLoop(reqs, 100000, 0, 5), hipe.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := hipe.LoadTest(cluster, hipe.ClosedLoop(reqs, 4), hipe.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*hipe.LoadReport{open, closed} {
		if r.Completed == 0 || r.LatencyP99 < r.LatencyP50 || r.ThroughputRPMC <= 0 {
			t.Fatalf("degenerate report %+v", r)
		}
	}
	if open.Mode != "open" || closed.Mode != "closed" {
		t.Fatal("report modes wrong")
	}
}

func TestClusteredDataEnablesSquash(t *testing.T) {
	cfg := smallConfig()
	q := hipe.DefaultQ06()
	plan := hipe.Plan{Arch: hipe.HIPE, Strategy: hipe.ColumnAtATime,
		OpSize: 256, Unroll: 32, Q: q}

	uniform, err := hipe.Run(cfg, hipe.Generate(cfg.Tuples, 1), plan)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := hipe.Run(cfg, hipe.GenerateClustered(cfg.Tuples, 1, 10), plan)
	if err != nil {
		t.Fatal(err)
	}
	if clustered.Squashed <= uniform.Squashed {
		t.Fatalf("clustering did not raise squashes: %d vs %d",
			clustered.Squashed, uniform.Squashed)
	}
	if clustered.SquashedDRAMBytes == 0 {
		t.Fatal("no DRAM bytes saved on clustered data")
	}
}

// TestRunRefusesTooSmallImage runs a plan on an explicit machine whose
// image cannot hold the table's layout: Run must return an error that
// names the bytes needed and the bytes the image holds, not panic.
func TestRunRefusesTooSmallImage(t *testing.T) {
	cfg := hipe.Default()
	mc := hipe.DefaultMachine()
	mc.ImageBytes = 64 << 10
	cfg.Machine = &mc
	_, err := hipe.Run(cfg, hipe.Generate(4096, 42), hipe.Plan{Arch: hipe.HIVE,
		Strategy: hipe.TupleAtATime, OpSize: 256, Unroll: 8, Q: hipe.DefaultQ06()})
	if err == nil || !strings.Contains(err.Error(), "needs a 532992-byte") || !strings.Contains(err.Error(), "holds 65536") {
		t.Fatalf("Run() error = %v, want one naming 532992 bytes needed and 65536 held", err)
	}
}
