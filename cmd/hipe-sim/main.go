// Command hipe-sim runs a single experiment configuration and reports
// cycles, energy and verification status — the workhorse for exploring
// points outside the paper's sweeps.
//
// Usage:
//
//	hipe-sim -arch hipe -strategy column -opsize 256 -unroll 32 [-fused]
//	         [-tuples N] [-seed S] [-clustered] [-print-config]
//
// Flag combinations are validated before anything runs — positional
// arguments, unknown architecture or strategy names and invalid plan
// shapes exit with a usage message, matching the other CLIs.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	hipe "github.com/hipe-sim/hipe"
	"github.com/hipe-sim/hipe/internal/cliutil"
)

// flagGroups files every hipe-sim flag under a subsystem; usage output
// prints group by group. main_test.go pins that no flag is left
// ungrouped.
var flagGroups = []cliutil.FlagGroup{
	{Title: "plan", Flags: []string{"arch", "strategy", "opsize", "unroll", "fused"}},
	{Title: "table", Flags: []string{"tuples", "seed", "clustered"}},
	{Title: "inspection", Flags: []string{"print-config"}},
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage of hipe-sim:")
	cliutil.PrintGroupedUsage(os.Stderr, flagGroups, flag.CommandLine)
}

// fail rejects a bad flag combination up front: message plus usage on
// stderr, exit 2 — matching the other CLIs' usage-error convention.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hipe-sim: "+format+"\n\n", args...)
	usage()
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hipe-sim: ")
	arch := flag.String("arch", "hipe", "x86, hmc, hive or hipe")
	strategy := flag.String("strategy", "column", "tuple or column")
	opsize := flag.Uint("opsize", 256, "operation size in bytes (16..256)")
	unroll := flag.Int("unroll", 32, "loop unroll depth (1..32)")
	fused := flag.Bool("fused", false, "use HIVE's fused full-scan plan")
	tuples := flag.Int("tuples", 16384, "lineitem tuples (multiple of 64)")
	seed := flag.Uint64("seed", 42, "generator seed")
	clustered := flag.Bool("clustered", false, "date-clustered table (append-ordered)")
	printConfig := flag.Bool("print-config", false, "dump the Table I machine configuration and exit")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() > 0 {
		fail("unexpected argument %q (all options are flags)", flag.Arg(0))
	}
	if *printConfig {
		dumpConfig()
		return
	}

	// hipe-sim runs one concrete plan, so the planner's "auto" is no
	// architecture here.
	a, ok := hipe.ParseArch(*arch)
	if !ok || a == hipe.ArchAuto {
		fail("unknown arch %q (have %s)", *arch, strings.Join(hipe.ArchNames(), ", "))
	}
	strategies := map[string]hipe.Strategy{"tuple": hipe.TupleAtATime, "column": hipe.ColumnAtATime}
	s, ok := strategies[*strategy]
	if !ok {
		fail("unknown strategy %q (have tuple, column)", *strategy)
	}
	if *tuples <= 0 || *tuples%64 != 0 {
		fail("-tuples %d must be a positive multiple of 64", *tuples)
	}
	if *opsize > math.MaxUint32 {
		fail("-opsize %d outside the 16..256 byte range", *opsize)
	}
	plan := hipe.Plan{Arch: a, Strategy: s, OpSize: uint32(*opsize),
		Unroll: *unroll, Fused: *fused, Q: hipe.DefaultQ06()}
	if err := plan.Validate(); err != nil {
		fail("%v", err)
	}

	var tab *hipe.Lineitem
	if *clustered {
		tab = hipe.GenerateClustered(*tuples, *seed, 10)
	} else {
		tab = hipe.Generate(*tuples, *seed)
	}
	cfg := hipe.Default()
	cfg.Tuples = *tuples
	cfg.Seed = *seed

	res, err := hipe.Run(cfg, tab, plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan            %s\n", plan)
	fmt.Printf("tuples          %d (selectivity %.4f)\n", *tuples, hipe.Selectivity(tab, plan.Q))
	fmt.Printf("cycles          %d\n", res.Cycles)
	fmt.Printf("cycles/tuple    %.2f\n", float64(res.Cycles)/float64(*tuples))
	fmt.Printf("energy          %s\n", res.Energy)
	fmt.Printf("result checks   %d (all passed)\n", res.Checked)
	if res.Squashed > 0 {
		fmt.Printf("squashed        %d predicated instructions, %d DRAM bytes avoided\n",
			res.Squashed, res.SquashedDRAMBytes)
	}
}

func dumpConfig() {
	m := hipe.DefaultMachine()
	fmt.Println("Table I machine configuration:")
	fmt.Printf("  cores          %s: %d-wide issue, %d-entry ROB, MOB %d read / %d write\n",
		m.CPU.Name, m.CPU.IssueWidth, m.CPU.ROBSize, m.CPU.MOBReads, m.CPU.MOBWrites)
	fmt.Printf("  fetch          %d B/cycle, %d-entry fetch buffer, %d-entry decode buffer\n",
		m.CPU.FetchBytes, m.CPU.FetchBufSize, m.CPU.DecodeBufSize)
	fmt.Printf("  predictor      two-level GAs, %d-entry PHT, %d-entry BTB\n",
		m.CPU.PHTEntries, m.CPU.BTBEntries)
	fmt.Printf("  L1D            %d KB, %d-way, %d-cycle, %s prefetch\n",
		m.L1.SizeBytes>>10, m.L1.Ways, m.L1.Latency, m.L1.Prefetch)
	fmt.Printf("  L2             %d KB, %d-way, %d-cycle, %s prefetch\n",
		m.L2.SizeBytes>>10, m.L2.Ways, m.L2.Latency, m.L2.Prefetch)
	fmt.Printf("  L3             %d MB, %d-way, %d-cycle, inclusive\n",
		m.L3.SizeBytes>>20, m.L3.Ways, m.L3.Latency)
	fmt.Printf("  HMC            %d vaults x %d banks, %d B rows, %s\n",
		m.Geometry.Vaults, m.Geometry.Banks, m.Geometry.RowBytes, m.DRAM.Policy)
	fmt.Printf("  DRAM timing    CAS %d, RP %d, RCD %d, RAS %d, CWD %d (DRAM cycles, 1:%d vs core)\n",
		m.DRAM.CAS, m.DRAM.RP, m.DRAM.RCD, m.DRAM.RAS, m.DRAM.CWD, m.DRAM.ClockRatio)
	fmt.Printf("  links          %d links, %d B/cycle/direction, %d-cycle latency\n",
		m.Links.Links, m.Links.BytesPerCycle, m.Links.Latency)
	fmt.Printf("  HMC ISA        %d in-flight window, %d-cycle FU\n",
		m.HMC.MaxInFlight, m.HMC.FULatency)
	fmt.Printf("  HIVE/HIPE      36 x 256 B registers, 1:%d engine clock, width %d\n",
		m.HIPE.ClockDivider, m.HIPE.Width)
}
