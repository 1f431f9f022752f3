package hipe_test

// Runnable godoc examples for the three public entry points. Each
// prints only facts that hold at any scale, so `go test` executes the
// documented snippets without pinning exact cycle counts.

import (
	"fmt"
	"log"

	hipe "github.com/hipe-sim/hipe"
)

// ExampleRun simulates one plan — the paper's best HIPE configuration —
// and verifies it against the reference evaluator.
func ExampleRun() {
	cfg := hipe.Default()
	cfg.Tuples = 1024 // keep the example fast; the default is 16384
	tab := hipe.Generate(cfg.Tuples, cfg.Seed)

	res, err := hipe.Run(cfg, tab, hipe.Plan{
		Arch:     hipe.HIPE,
		Strategy: hipe.ColumnAtATime,
		OpSize:   256,
		Unroll:   32,
		Q:        hipe.DefaultQ06(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("simulated:", res.Cycles > 0)
	fmt.Println("verified checks:", res.Checked > 0)
	fmt.Println("energy audited:", res.Energy.DRAMPJ() > 0)
	// Output:
	// simulated: true
	// verified checks: true
	// energy audited: true
}

// ExampleFigure regenerates one panel of the paper's Figure 3 as a
// text table.
func ExampleFigure() {
	cfg := hipe.Default()
	cfg.Tuples = 1024

	table, err := hipe.Figure(cfg, "3d")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table.Title)
	fmt.Println("rows:", len(table.Rows))
	// The x86 row is the normalisation baseline; every cube
	// architecture beats it at its best configuration.
	hipeRow := table.Rows[len(table.Rows)-1]
	fmt.Println("HIPE faster than x86:", hipeRow.Cycles < table.Baseline)
	// Output:
	// Figure 3d — best case of each architecture
	// rows: 4
	// HIPE faster than x86: true
}

// ExampleServe shards a table across a fleet of simulated machines,
// answers one verified query, and runs a closed-loop load test.
func ExampleServe() {
	cfg := hipe.Default()
	cfg.Tuples = 1024
	tab := hipe.Generate(cfg.Tuples, cfg.Seed)

	cluster, err := hipe.Serve(cfg, tab, 4)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := cluster.Query(hipe.ServeRequest{
		Plan: hipe.ServePlan(hipe.HIPE, hipe.DefaultQ06()),
	}, hipe.ServeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("shards:", cluster.Shards())
	// Query already verified the merge against the unsharded reference;
	// the public Selectivity helper confirms it once more.
	sel := hipe.Selectivity(tab, hipe.DefaultQ06())
	fmt.Println("exact matches:", float64(resp.Matches)/float64(tab.N) == sel)

	reqs, err := hipe.StreamSpec{N: 8, Seed: 7}.Requests()
	if err != nil {
		log.Fatal(err)
	}
	report, err := hipe.LoadTest(cluster, hipe.ClosedLoop(reqs, 2), hipe.ServeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("served:", report.Completed)
	fmt.Println("tail above median:", report.LatencyP99 >= report.LatencyP50)
	// Output:
	// shards: 4
	// exact matches: true
	// served: 8
	// tail above median: true
}

// ExampleServe_autoRouting routes a request with hipe.ArchAuto: the
// adaptive planner profiles the predicate's selectivity on the served
// table, estimates every backend's cycles with the analytic
// cost model, and executes the predicted-fastest backend — here HIPE,
// whose predication skips whole chunks on the date-clustered layout at
// Query 06's low selectivity.
func ExampleServe_autoRouting() {
	cfg := hipe.Default()
	cfg.Tuples = 4096
	tab := hipe.GenerateClustered(cfg.Tuples, cfg.Seed, 10)

	cluster, err := hipe.Serve(cfg, tab, 4)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := cluster.Query(hipe.ServeRequest{
		Plan: hipe.ServePlan(hipe.ArchAuto, hipe.DefaultQ06()),
	}, hipe.ServeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("routed to:", resp.Request.Plan.Arch)
	fmt.Println("candidates considered:", len(resp.Routing.Estimates))
	fmt.Println("answer verified:", resp.Matches == int(float64(tab.N)*hipe.Selectivity(tab, hipe.DefaultQ06())))
	// Output:
	// routed to: hipe
	// candidates considered: 4
	// answer verified: true
}

// ExampleRun_q1Aggregation runs the TPC-H Q01-style grouped aggregation
// on the HIPE predicated engine: the shipdate filter, the (returnflag,
// linestatus) group-by and all four per-group aggregates execute inside
// the memory, and the spilled accumulators are verified against the
// reference evaluator.
func ExampleRun_q1Aggregation() {
	cfg := hipe.Default()
	cfg.Tuples = 1024
	tab := hipe.Generate(cfg.Tuples, cfg.Seed)

	res, err := hipe.Run(cfg, tab, hipe.Plan{
		Arch:     hipe.HIPE,
		Strategy: hipe.ColumnAtATime,
		OpSize:   256,
		Unroll:   32,
		Kind:     hipe.Q1Agg,
		Q1:       hipe.DefaultQ01(),
	})
	if err != nil {
		log.Fatal(err)
	}
	ref := hipe.ReferenceQ1(tab, hipe.DefaultQ01())
	fmt.Println("groups reported:", len(res.Groups))
	fmt.Println("matches reference:", res.Groups[0] == ref.Groups[0])
	var rows int64
	for _, g := range res.Groups {
		rows += g.Count
	}
	fmt.Println("rows aggregated:", rows == int64(ref.Matches))
	// Output:
	// groups reported: 6
	// matches reference: true
	// rows aggregated: true
}

// ExampleSweep fans a declarative grid across all cores and reads the
// aggregated, index-ordered result set.
func ExampleSweep() {
	cfg := hipe.Default()

	rs, err := hipe.Sweep(cfg, hipe.Grid{
		Archs:   []hipe.Arch{hipe.HMC, hipe.HIPE},
		Unrolls: []int{1, 32},
		Tuples:  []int{1024},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cells:", len(rs.Cells))
	for _, best := range rs.Best() {
		fmt.Println("best:", best.Cell.Plan)
	}
	// Output:
	// cells: 4
	// best: hmc/column-at-a-time/256B/1x
	// best: hipe/column-at-a-time/256B/32x
}

// ExampleSweep_estimateMode runs the same auto-routed sweep twice —
// exact machine simulation and the cost-model estimate fast path. The
// fast path prices every cell analytically (orders of magnitude faster,
// bounded cycle error — see docs/PERFORMANCE.md) but routes through the
// identical planner call, so both modes pick the same backend.
func ExampleSweep_estimateMode() {
	cfg := hipe.Default()
	grid := hipe.Grid{
		Archs:   []hipe.Arch{hipe.ArchAuto},
		Unrolls: []int{32},
		Tuples:  []int{1024},
	}

	exact, err := hipe.SweepWith(cfg, grid, hipe.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	est, err := hipe.SweepWith(cfg, grid, hipe.SweepOptions{Exec: hipe.ExecEstimate})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("estimate marked:", est.Cells[0].Mode == hipe.ExecEstimate)
	fmt.Println("same routing pick:", est.Cells[0].Routing.Chosen == exact.Cells[0].Routing.Chosen)
	fmt.Println("cycles priced:", est.Cells[0].Result.Cycles > 0)
	// Output:
	// estimate marked: true
	// same routing pick: true
	// cycles priced: true
}

// ExampleServe_parallelShards shows the determinism contract behind
// intra-request parallelism: per-shard machine simulations run
// concurrently on the executor pool, partials merge in shard order, and
// the report's cycle figure is the scatter-gather critical path — so
// the answer and the report bytes are identical at any worker count.
func ExampleServe_parallelShards() {
	cfg := hipe.Default()
	cfg.Tuples = 1024
	tab := hipe.Generate(cfg.Tuples, cfg.Seed)

	cluster, err := hipe.Serve(cfg, tab, 4)
	if err != nil {
		log.Fatal(err)
	}
	req := hipe.ServeRequest{Plan: hipe.ServePlan(hipe.HIPE, hipe.DefaultQ06())}
	serial, err := cluster.Query(req, hipe.ServeOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	wide, err := cluster.Query(req, hipe.ServeOptions{Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same answer:", wide.Matches == serial.Matches && wide.Revenue == serial.Revenue)
	fmt.Println("same critical path:", wide.Cycles == serial.Cycles)
	// Output:
	// same answer: true
	// same critical path: true
}

// ExampleServe_tracing runs a small load test with the observability
// layer on: the virtual-time tracer records each request's span tree
// (admission, routing, per-shard machine replay, merge) in simulated
// cycles, and every shard simulation's machine counters roll up into
// the report. Both are off by default and cost nothing when off; when
// on, their exports are byte-identical at any worker count.
func ExampleServe_tracing() {
	cfg := hipe.Default()
	cfg.Tuples = 1024
	tab := hipe.GenerateClustered(cfg.Tuples, cfg.Seed, 10)

	cluster, err := hipe.Serve(cfg, tab, 2)
	if err != nil {
		log.Fatal(err)
	}
	reqs, err := hipe.StreamSpec{N: 4, Seed: 7, Archs: []hipe.Arch{hipe.ArchAuto}}.Requests()
	if err != nil {
		log.Fatal(err)
	}
	report, err := hipe.LoadTest(cluster, hipe.ClosedLoop(reqs, 2),
		hipe.ServeOptions{Trace: true, Counters: true})
	if err != nil {
		log.Fatal(err)
	}

	// The first request's span tree, in record order. The async request
	// span (pid 0, the router track) brackets the routing instant, one
	// complete span per shard task (pid 1, tid = shard) and the merge.
	for _, s := range report.Trace.Spans() {
		if s.ID != 0 && s.Phase != hipe.TracePhaseComplete {
			continue
		}
		switch s.Phase {
		case hipe.TracePhaseBegin:
			fmt.Printf("%s\n", s.Name)
		case hipe.TracePhaseComplete:
			if s.Name != "q0 hipe" {
				continue
			}
			fmt.Printf("  shard %d replay\n", s.Tid)
		case hipe.TracePhaseInstant:
			fmt.Printf("  %s\n", s.Name)
		case hipe.TracePhaseEnd:
			fmt.Printf("%s done\n", s.Name)
		}
		if s.Phase == hipe.TracePhaseEnd {
			break
		}
	}

	// The counter snapshot sums every distinct shard simulation once.
	squashed, _ := report.Counters.Get("hipe.squashed")
	scheduled, _ := report.Counters.Get("engine.events_scheduled")
	fmt.Println("predicated ops squashed:", squashed > 0)
	fmt.Println("engine events scheduled:", scheduled > 0)
	// Output:
	// q0 hipe
	//   route
	//   shard 0 replay
	//   shard 1 replay
	//   merge
	// q0 hipe done
	// predicated ops squashed: true
	// engine events scheduled: true
}

// ExampleServeFleet_faults injects a replica outage into a load test
// and lets the recovery policy route around it. Pool 0 is down for the
// whole horizon; with failover on, every request lands on the healthy
// replica and completes exactly. A second run crashes both replicas:
// the retry budget runs out and the fleet returns a gracefully
// degraded answer — explicit zero coverage instead of an answer that
// silently never arrives.
func ExampleServeFleet_faults() {
	cfg := hipe.Default()
	cfg.Tuples = 1024
	tab := hipe.Generate(cfg.Tuples, cfg.Seed)

	fleet, err := hipe.ServeFleet(cfg, tab, 2, []hipe.Arch{hipe.HIPE, hipe.HIPE})
	if err != nil {
		log.Fatal(err)
	}
	reqs, err := hipe.StreamSpec{N: 4, Seed: 7, Archs: []hipe.Arch{hipe.ArchAuto}}.Requests()
	if err != nil {
		log.Fatal(err)
	}

	spec := hipe.ClosedLoop(reqs, 1)
	spec.Classes = []hipe.ClassSpec{{Name: "rt", SLOCycles: 1_000_000, TimeoutCycles: 500_000}}
	spec.Faults = &hipe.FaultSpec{Crashes: []hipe.FaultCrash{
		{Pool: 0, At: 0, Down: 50_000_000},
	}}
	spec.Recovery = &hipe.RecoverySpec{MaxRetries: 2, BackoffCycles: 1_000, Failover: true}
	report, err := fleet.LoadTest(spec, hipe.ServeOptions{Counters: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("completed:", report.Completed)
	fmt.Println("failovers:", report.Faults.Failovers)
	fmt.Println("degraded:", report.Degraded)
	failovers, _ := report.Counters.Get("serve.failovers")
	fmt.Println("counter agrees:", int(failovers) == report.Faults.Failovers)

	// Both replicas down: the request can neither run nor fail over, so
	// when the attempt budget is spent it degrades with exact coverage
	// accounting rather than waiting out the outage.
	spec.Faults = &hipe.FaultSpec{Crashes: []hipe.FaultCrash{
		{Pool: 0, At: 0, Down: 50_000_000},
		{Pool: 1, At: 0, Down: 50_000_000},
	}}
	report, err = fleet.LoadTest(spec, hipe.ServeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tr := report.Requests[0]
	fmt.Println("degraded:", tr.Degraded, "with coverage:", tr.Coverage)
	// Output:
	// completed: 4
	// failovers: 4
	// degraded: 0
	// counter agrees: true
	// degraded: true with coverage: 0
}
