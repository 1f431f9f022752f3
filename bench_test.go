package hipe_test

// One benchmark per table/figure of the paper's evaluation, plus
// ablations for the design choices DESIGN.md calls out. Each figure
// bench simulates the full sweep of its panel and reports simulated
// cycles per architecture point via b.ReportMetric, so `go test -bench`
// regenerates the paper's series.

import (
	"fmt"
	"math"
	"testing"
	"time"

	hipe "github.com/hipe-sim/hipe"
	"github.com/hipe-sim/hipe/internal/dram"
)

const benchTuples = 4096

func benchConfig() hipe.Config {
	c := hipe.Default()
	c.Tuples = benchTuples
	return c
}

// benchFigure runs one panel per iteration and reports each row's
// simulated cycles as a metric.
func benchFigure(b *testing.B, name string) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		table, err := hipe.Figure(cfg, name)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range table.Rows {
				b.ReportMetric(float64(r.Cycles), "simcyc:"+r.Plan.String())
			}
		}
	}
}

// BenchmarkFig3aTupleAtATime regenerates Figure 3a: tuple-at-a-time
// execution time versus operation size (x86, HMC, HIVE on NSM).
func BenchmarkFig3aTupleAtATime(b *testing.B) { benchFigure(b, "3a") }

// BenchmarkFig3bColumnAtATime regenerates Figure 3b: column-at-a-time
// execution time versus operation size (x86, HMC, HIVE on DSM).
func BenchmarkFig3bColumnAtATime(b *testing.B) { benchFigure(b, "3b") }

// BenchmarkFig3cUnrolling regenerates Figure 3c: column-at-a-time
// execution time versus loop-unroll depth.
func BenchmarkFig3cUnrolling(b *testing.B) { benchFigure(b, "3c") }

// BenchmarkFig3dBestCases regenerates Figure 3d: the best configuration
// of every architecture, including HIPE, with DRAM energy.
func BenchmarkFig3dBestCases(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		table, err := hipe.Figure(cfg, "3d")
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range table.Rows {
				b.ReportMetric(float64(r.Cycles), "simcyc:"+r.Plan.Arch.String())
				b.ReportMetric(r.Energy.DRAMPJ(), "drampJ:"+r.Plan.Arch.String())
			}
		}
	}
}

// BenchmarkQ1BestCases runs the TPC-H Q01-style grouped aggregation on
// each architecture's best configuration — the aggregation-workload
// counterpart of Figure 3d, reporting simulated cycles and (for HIPE)
// the DRAM reads its predication squashed.
func BenchmarkQ1BestCases(b *testing.B) {
	cfg := benchConfig()
	tab := hipe.Generate(cfg.Tuples, cfg.Seed)
	q := hipe.DefaultQ01()
	var results [4]hipe.Result
	archs := [...]hipe.Arch{hipe.X86, hipe.HMC, hipe.HIVE, hipe.HIPE}
	for i := 0; i < b.N; i++ {
		for j, arch := range archs {
			results[j] = runPoint(b, cfg, tab, hipe.ServeQ1Plan(arch, q))
		}
	}
	for j, arch := range archs {
		b.ReportMetric(float64(results[j].Cycles), "simcyc:"+arch.String())
	}
	b.ReportMetric(float64(results[3].SquashedDRAMBytes), "savedB:hipe")
}

// BenchmarkAutoRouting measures the adaptive planner's per-request
// overhead: one COLD routing decision per iteration (a fresh predicate
// each time, so the serving layer's per-predicate decision cache never
// hides the work — production requests repeating a predicate pay less)
// across the four serving-shape candidates. The plannerpct metric is
// the decision's wall-clock share of actually simulating the chosen
// plan once; the target is < 1% of query latency.
func BenchmarkAutoRouting(b *testing.B) {
	pr := hipe.DefaultCostParams()
	tab := hipe.GenerateClustered(benchTuples, 42, 10)
	candidates := func(q hipe.Q06) []hipe.Plan {
		archs := [...]hipe.Arch{hipe.X86, hipe.HMC, hipe.HIVE, hipe.HIPE}
		out := make([]hipe.Plan, len(archs))
		for i, a := range archs {
			out[i] = hipe.ServePlan(a, q)
		}
		return out
	}
	var chosen hipe.Plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := hipe.DefaultQ06()
		q.QtyHi = int32(1 + i%50) // fresh predicate: no cache, full profile+estimate
		d, err := hipe.PickPlan(pr, tab, candidates(q))
		if err != nil {
			b.Fatal(err)
		}
		chosen = d.Chosen
	}
	b.StopTimer()
	routeNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	// Simulate the last chosen plan for the overhead ratio; min of three
	// runs so first-touch page faults and cold tables don't inflate the
	// denominator.
	cfg := benchConfig()
	var res hipe.Result
	queryNs := math.Inf(1)
	for k := 0; k < 3; k++ {
		start := time.Now()
		r, err := hipe.Run(cfg, tab, chosen)
		if err != nil {
			b.Fatal(err)
		}
		if ns := float64(time.Since(start).Nanoseconds()); ns < queryNs {
			queryNs = ns
		}
		res = r
	}
	b.ReportMetric(routeNs, "routens")
	b.ReportMetric(100*routeNs/queryNs, "plannerpct")
	b.ReportMetric(float64(res.Cycles), "simcyc:"+chosen.Arch.String())
}

// BenchmarkFleet load-tests the replicated fleet end to end: two
// replica pools (HIPE, x86), an auto-routed two-class request stream,
// admission control shedding under an open-loop overload. The simulated
// outcome is reported as metrics; ns/op tracks the serving layer's
// wall-clock cost per load test.
func BenchmarkFleet(b *testing.B) {
	cfg := benchConfig()
	tab := hipe.GenerateClustered(cfg.Tuples, cfg.Seed, 10)
	fleet, err := hipe.ServeFleet(cfg, tab, 2, []hipe.Arch{hipe.HIPE, hipe.X86})
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := hipe.StreamSpec{
		N: 24, Seed: 7, Archs: []hipe.Arch{hipe.ArchAuto}, Classes: 2,
	}.Requests()
	if err != nil {
		b.Fatal(err)
	}
	spec := hipe.OpenLoop(reqs, 100, 0, 5)
	spec.Classes = []hipe.ClassSpec{
		{Name: "batch", SLOCycles: 40_000, PatienceCycles: 5_000},
		{Name: "rt", SLOCycles: 20_000, PatienceCycles: 0},
	}
	spec.Shed = true
	var r *hipe.LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err = fleet.LoadTest(spec, hipe.ServeOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Completed), "completed")
	b.ReportMetric(float64(r.Shed), "shed")
	b.ReportMetric(float64(r.LatencyP50), "simcyc:p50")
	b.ReportMetric(float64(r.LatencyP99), "simcyc:p99")
}

// BenchmarkTableIConfig exercises machine construction with the full
// Table I parameter set (the paper's configuration table).
func BenchmarkTableIConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := hipe.DefaultMachine()
		if m.Geometry.Vaults != 32 {
			b.Fatal("bad geometry")
		}
	}
}

// runPoint simulates one plan and reports its simulated cycles.
func runPoint(b *testing.B, cfg hipe.Config, tab *hipe.Lineitem, p hipe.Plan) hipe.Result {
	b.Helper()
	res, err := hipe.Run(cfg, tab, p)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationOpenPage compares closed-page (the paper's policy)
// against open-page vault management for the x86 streaming baseline.
func BenchmarkAblationOpenPage(b *testing.B) {
	q := hipe.DefaultQ06()
	plan := hipe.Plan{Arch: hipe.X86, Strategy: hipe.ColumnAtATime, OpSize: 64, Unroll: 8, Q: q}
	for _, policy := range []dram.Policy{dram.ClosedPage, dram.OpenPage} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			cfg := benchConfig()
			mc := hipe.DefaultMachine()
			mc.DRAM.Policy = policy
			cfg.Machine = &mc
			tab := hipe.Generate(cfg.Tuples, cfg.Seed)
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = runPoint(b, cfg, tab, plan).Cycles
			}
			b.ReportMetric(float64(cycles), "simcyc")
		})
	}
}

// BenchmarkAblationLinkCount sweeps the SerDes link count (4 in the
// paper) to expose the off-chip bandwidth sensitivity of the x86 path.
func BenchmarkAblationLinkCount(b *testing.B) {
	q := hipe.DefaultQ06()
	plan := hipe.Plan{Arch: hipe.X86, Strategy: hipe.ColumnAtATime, OpSize: 64, Unroll: 8, Q: q}
	for _, links := range []uint32{1, 2, 4} {
		links := links
		b.Run(fmt.Sprintf("links-%d", links), func(b *testing.B) {
			cfg := benchConfig()
			mc := hipe.DefaultMachine()
			mc.Links.Links = links
			cfg.Machine = &mc
			tab := hipe.Generate(cfg.Tuples, cfg.Seed)
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = runPoint(b, cfg, tab, plan).Cycles
			}
			b.ReportMetric(float64(cycles), "simcyc")
		})
	}
}

// BenchmarkAblationHMCWindow sweeps the host controller's in-flight HMC
// instruction window — the knob controlling how much vault parallelism
// the HMC baseline extracts.
func BenchmarkAblationHMCWindow(b *testing.B) {
	q := hipe.DefaultQ06()
	plan := hipe.Plan{Arch: hipe.HMC, Strategy: hipe.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q}
	for _, window := range []int{4, 16, 64} {
		window := window
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			cfg := benchConfig()
			mc := hipe.DefaultMachine()
			mc.HMC.MaxInFlight = window
			cfg.Machine = &mc
			tab := hipe.Generate(cfg.Tuples, cfg.Seed)
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = runPoint(b, cfg, tab, plan).Cycles
			}
			b.ReportMetric(float64(cycles), "simcyc")
		})
	}
}

// BenchmarkAblationPredicationGranularity sweeps HIPE's operation size:
// smaller chunks squash more often (finer skip granularity) but pay more
// per-chunk overhead — the trade-off behind the paper's per-tuple
// skipping claim.
func BenchmarkAblationPredicationGranularity(b *testing.B) {
	q := hipe.DefaultQ06()
	for _, opsize := range []uint32{16, 64, 256} {
		opsize := opsize
		b.Run(fmt.Sprintf("op-%dB", opsize), func(b *testing.B) {
			cfg := benchConfig()
			tab := hipe.Generate(cfg.Tuples, cfg.Seed)
			plan := hipe.Plan{Arch: hipe.HIPE, Strategy: hipe.ColumnAtATime,
				OpSize: opsize, Unroll: 32, Q: q}
			var res hipe.Result
			for i := 0; i < b.N; i++ {
				res = runPoint(b, cfg, tab, plan)
			}
			b.ReportMetric(float64(res.Cycles), "simcyc")
			b.ReportMetric(float64(res.Squashed), "squashed")
			b.ReportMetric(float64(res.SquashedDRAMBytes), "savedB")
		})
	}
}

// BenchmarkAblationDateClustering compares HIPE on uniform versus
// append-ordered (date-clustered) tables: clustering is what converts
// chunk-granular predication into large DRAM savings.
func BenchmarkAblationDateClustering(b *testing.B) {
	q := hipe.DefaultQ06()
	plan := hipe.Plan{Arch: hipe.HIPE, Strategy: hipe.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q}
	for _, clustered := range []bool{false, true} {
		clustered := clustered
		name := "uniform"
		if clustered {
			name = "clustered"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig()
			var tab *hipe.Lineitem
			if clustered {
				tab = hipe.GenerateClustered(cfg.Tuples, cfg.Seed, 10)
			} else {
				tab = hipe.Generate(cfg.Tuples, cfg.Seed)
			}
			var res hipe.Result
			for i := 0; i < b.N; i++ {
				res = runPoint(b, cfg, tab, plan)
			}
			b.ReportMetric(float64(res.Cycles), "simcyc")
			b.ReportMetric(res.Energy.DRAMPJ(), "drampJ")
			b.ReportMetric(float64(res.SquashedDRAMBytes), "savedB")
		})
	}
}

// BenchmarkAblationFusedVsPerColumn compares HIVE's per-column plan
// (with processor bitmask round trips) against the fused full scan.
func BenchmarkAblationFusedVsPerColumn(b *testing.B) {
	q := hipe.DefaultQ06()
	for _, fused := range []bool{false, true} {
		fused := fused
		name := "per-column"
		if fused {
			name = "fused"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig()
			tab := hipe.Generate(cfg.Tuples, cfg.Seed)
			plan := hipe.Plan{Arch: hipe.HIVE, Strategy: hipe.ColumnAtATime,
				OpSize: 256, Unroll: 32, Fused: fused, Q: q}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = runPoint(b, cfg, tab, plan).Cycles
			}
			b.ReportMetric(float64(cycles), "simcyc")
		})
	}
}
