// Command hipe-sweep fans a whole parameter sweep — the cross-product
// of architectures, scan strategies, operation sizes, unroll depths,
// Q06 selectivity knobs, tuple counts and seeds — across all cores,
// then prints a summary table and optionally exports every cell as CSV
// or JSON. Exports are byte-identical at any worker count.
//
// Usage:
//
//	hipe-sweep -archs x86,hmc,hive,hipe -strategies column \
//	           -opsizes 16,32,64,128,256 -unrolls 1,8,32 \
//	           [-fused both] [-qtyhi 24,50] [-q1cuts 2436] \
//	           [-tuples 16384] [-seeds 42] \
//	           [-clustered both] [-workers N] [-csv out.csv] [-json out.json] \
//	           [-exec exact|estimate] [-cell-shards N] \
//	           [-counters] [-cpuprofile cpu.pprof] [-memprofile mem.pprof] \
//	           [-trace-out exec.trace]
//
// -exec selects the execution mode: "exact" (the default) simulates
// every cell on a full machine model; "estimate" prices cells with the
// analytic cost model instead — orders of magnitude faster, with the
// bounded cycle error documented in docs/PERFORMANCE.md — and marks
// every exported row with an exec_mode column. Estimate mode cannot
// produce machine counters, so -exec estimate -counters is refused.
//
// -cell-shards N runs each cell as N parallel shard legs: the cell's
// table is cut into N contiguous shards, each simulated on its own
// machine (or, under -exec estimate, priced by the cost model), and the
// partials merge in shard order — cycles as the critical path, energy
// and counters summed — so exports stay byte-identical at any worker
// count.
//
// -counters snapshots each cell's machine counters (cache hits, DRAM
// activates, link packets, event-engine lanes…) after its run: the CSV
// export grows one ctr_<key> column per counter and the JSON export a
// Counters field per cell. Off by default; counter-off exports are
// byte-identical to their pre-observability schema, counter-on exports
// byte-identical at any worker count. -cpuprofile/-memprofile/-trace-out
// profile the simulator process itself over the sweep.
//
// -q1cuts adds TPC-H Q01-style grouped-aggregation cells to the query
// axis (one per shipdate cutoff), swept across the same architecture,
// op-size and unroll axes as the Q06 cells.
//
// -archs may include "auto": an auto cell keeps the grid's shape axes
// and the adaptive planner routes it to the predicted-fastest backend
// whose envelope admits that shape; exports gain routed_arch/est_cycles
// columns recording each decision.
//
// Per-architecture envelopes (x86 ≤ 64 B, unroll ≤ 8; HIPE
// column-at-a-time only) are trimmed automatically, mirroring the
// paper's figures, unless -strict is given. Flag combinations are
// validated before anything runs: zero/negative worker counts and
// unknown architecture or strategy names exit with a usage message.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	hipe "github.com/hipe-sim/hipe"
	"github.com/hipe-sim/hipe/internal/cliutil"
)

// flagGroups files every hipe-sweep flag under a subsystem; usage
// output prints group by group instead of one flat alphabetical list.
// main_test.go pins that no flag is left ungrouped.
var flagGroups = []cliutil.FlagGroup{
	{Title: "grid axes", Flags: []string{"archs", "strategies", "opsizes", "unrolls", "fused", "tuples", "seeds", "clustered"}},
	{Title: "workload", Flags: []string{"qtyhi", "q1cuts", "disclo", "dischi", "noise", "strict"}},
	{Title: "execution", Flags: []string{"exec", "cell-shards", "workers", "quiet"}},
	{Title: "export", Flags: []string{"csv", "json", "counters"}},
	{Title: "profiling", Flags: []string{"cpuprofile", "memprofile", "trace-out"}},
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage of hipe-sweep:")
	cliutil.PrintGroupedUsage(os.Stderr, flagGroups, flag.CommandLine)
}

// fail rejects a bad flag combination up front: message plus usage on
// stderr, exit 2 — never a late panic mid-sweep or a silent default.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hipe-sweep: "+format+"\n\n", args...)
	usage()
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hipe-sweep: ")
	archs := flag.String("archs", "x86,hmc,hive,hipe", "comma list of architectures; \"auto\" adds planner-routed cells (validated against the backend table)")
	strategies := flag.String("strategies", "column", "comma list of scan strategies (tuple,column)")
	opsizes := flag.String("opsizes", "256", "comma list of operation sizes in bytes")
	unrolls := flag.String("unrolls", "32", "comma list of loop unroll depths")
	fused := flag.String("fused", "false", "HIVE fused full-scan plan: false, true or both")
	tuples := flag.String("tuples", "16384", "comma list of lineitem tuple counts (multiples of 64)")
	seeds := flag.String("seeds", "42", "comma list of generator seeds")
	clustered := flag.String("clustered", "false", "date-clustered table: false, true or both")
	noise := flag.Int("noise", 10, "clustering noise in days (with -clustered)")
	qtyhi := flag.String("qtyhi", "24", "comma list of Q06 quantity bounds (the selectivity knob)")
	q1cuts := flag.String("q1cuts", "", "comma list of Q01 shipdate cutoffs in days; each adds grouped-aggregation cells to the query axis (empty = Q06 only)")
	disclo := flag.Int("disclo", 5, "Q06 discount lower bound")
	dischi := flag.Int("dischi", 7, "Q06 discount upper bound")
	strict := flag.Bool("strict", false, "fail on cells outside an architecture's envelope instead of skipping them")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size (defaults to GOMAXPROCS; must be positive)")
	csvPath := flag.String("csv", "", "write per-cell results as CSV to this path (- for stdout)")
	jsonPath := flag.String("json", "", "write per-cell results as JSON to this path (- for stdout)")
	counters := flag.Bool("counters", false, "capture each cell's machine-counter snapshot; exports gain one ctr_<key> column / Counters field per counter")
	execMode := flag.String("exec", "exact", "execution mode: exact simulates every cell, estimate prices it with the cost model (see docs/PERFORMANCE.md)")
	cellShards := flag.Int("cell-shards", 0, "split each cell into N shards run in parallel and merged deterministically (0 = whole-table)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (snapshotted after the sweep) to this path")
	traceOut := flag.String("trace-out", "", "write a runtime execution trace of the sweep to this path")
	quiet := flag.Bool("quiet", false, "suppress progress on stderr")
	flag.Usage = usage
	flag.Parse()

	// Validate flag combinations before any parsing or simulation.
	if flag.NArg() > 0 {
		fail("unexpected argument %q (all options are flags)", flag.Arg(0))
	}
	if *workers <= 0 {
		fail("-workers %d must be positive", *workers)
	}
	if *noise < 0 {
		fail("-noise %d must not be negative", *noise)
	}
	if *disclo < 0 || *dischi > 10 || *disclo > *dischi {
		fail("-disclo %d / -dischi %d outside the generated 0..10 discount range", *disclo, *dischi)
	}
	if *csvPath == "-" && *jsonPath == "-" {
		fail("-csv - and -json - both claim stdout; pick one")
	}
	mode, ok := hipe.ParseExecMode(*execMode)
	if !ok {
		fail("unknown exec mode %q (have %s)", *execMode, hipe.ExecModeChoices())
	}
	if *cellShards < 0 {
		fail("-cell-shards %d must not be negative", *cellShards)
	}
	if mode == hipe.ExecEstimate && *counters {
		fail("-exec estimate cannot capture machine counters (µop-level counters need exact simulation)")
	}

	grid := hipe.Grid{
		OpSizes:     parseU32s(*opsizes, "opsizes"),
		Unrolls:     parseInts(*unrolls, "unrolls"),
		Fused:       parseBools(*fused, "fused"),
		Tuples:      parseInts(*tuples, "tuples"),
		Seeds:       parseU64s(*seeds, "seeds"),
		Clustered:   parseBools(*clustered, "clustered"),
		NoiseDays:   int32(*noise),
		SkipInvalid: !*strict,
	}
	// Architectures validate against the backend table, so the error
	// message lists exactly the table's backends.
	for _, s := range splitList(*archs) {
		a, ok := hipe.ParseArch(s)
		if !ok {
			fail("unknown arch %q (have %s)", s, hipe.ArchChoices())
		}
		grid.Archs = append(grid.Archs, a)
	}
	if len(grid.Archs) == 0 {
		fail("-archs selects no architecture")
	}
	stratNames := map[string]hipe.Strategy{"tuple": hipe.TupleAtATime, "column": hipe.ColumnAtATime}
	for _, s := range splitList(*strategies) {
		st, ok := stratNames[s]
		if !ok {
			fail("unknown strategy %q (have tuple, column)", s)
		}
		grid.Strategies = append(grid.Strategies, st)
	}
	if len(grid.Strategies) == 0 {
		fail("-strategies selects no scan strategy")
	}
	for _, qh := range parseInts(*qtyhi, "qtyhi") {
		q := hipe.DefaultQ06()
		q.DiscLo, q.DiscHi = int32(*disclo), int32(*dischi)
		q.QtyHi = int32(qh)
		grid.Queries = append(grid.Queries, q)
	}
	for _, cut := range parseInts(*q1cuts, "q1cuts") {
		if cut <= 0 || cut >= hipe.ShipDateDays {
			fail("-q1cuts entry %d outside the generated 1..%d day range", cut, hipe.ShipDateDays-1)
		}
		grid.Q1Queries = append(grid.Q1Queries, hipe.Q01{ShipCut: int32(cut)})
	}

	opt := hipe.SweepOptions{Workers: *workers, Counters: *counters, Exec: mode, CellShards: *cellShards}
	if !*quiet {
		opt.OnCell = func(done, total int, r hipe.CellResult) {
			fmt.Fprintf(os.Stderr, "\rhipe-sweep: %d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	// The profiling hooks cover exactly the sweep — grid expansion and
	// flag parsing stay out of the profiles.
	prof := &hipe.Profile{CPUPath: *cpuprofile, MemPath: *memprofile, TracePath: *traceOut}
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	rs, err := hipe.SweepWith(hipe.Default(), grid, opt)
	elapsed := time.Since(start)
	if perr := prof.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		log.Fatal(err)
	}

	// An export aimed at stdout owns it; the summary table would
	// corrupt the piped CSV/JSON.
	if *csvPath != "-" && *jsonPath != "-" {
		printSummary(rs, elapsed, opt)
	}

	if *csvPath != "" {
		cliutil.WriteExport(*csvPath, rs.WriteCSV)
	}
	if *jsonPath != "" {
		cliutil.WriteExport(*jsonPath, rs.WriteJSON)
	}
}

func printSummary(rs *hipe.ResultSet, elapsed time.Duration, opt hipe.SweepOptions) {
	// Speedups are against each workload group's best x86 cell, or the
	// group's best cell when the grid includes no x86 runs.
	fmt.Printf("%-44s %8s %6s %12s %10s %14s\n",
		"cell", "tuples", "seed", "cycles", "speedup", "DRAM energy pJ")
	for _, c := range rs.Cells {
		fmt.Printf("%-44s %8d %6d %12d %9.2fx %14.0f\n",
			c.Cell.Plan, c.Cell.Tuples, c.Cell.Seed,
			c.Result.Cycles, c.Speedup, c.Result.Energy.DRAMPJ())
	}
	fmt.Printf("\nbest per architecture:\n")
	for _, c := range rs.Best() {
		fmt.Printf("  %-42s %12d cycles %9.2fx\n", c.Cell.Plan, c.Result.Cycles, c.Speedup)
	}
	fmt.Printf("\n%d cells in %v (%d workers)\n",
		len(rs.Cells), elapsed.Round(time.Millisecond), opt.EffectiveWorkers())
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInts(s, name string) []int {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			fail("bad -%s entry %q", name, f)
		}
		out = append(out, v)
	}
	return out
}

func parseU32s(s, name string) []uint32 {
	var out []uint32
	for _, v := range parseInts(s, name) {
		out = append(out, uint32(v))
	}
	return out
}

func parseU64s(s, name string) []uint64 {
	var out []uint64
	for _, f := range splitList(s) {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			fail("bad -%s entry %q", name, f)
		}
		out = append(out, v)
	}
	return out
}

func parseBools(s, name string) []bool {
	switch strings.TrimSpace(s) {
	case "false":
		return []bool{false}
	case "true":
		return []bool{true}
	case "both":
		return []bool{false, true}
	}
	fail("bad -%s value %q (want false, true or both)", name, s)
	return nil
}
