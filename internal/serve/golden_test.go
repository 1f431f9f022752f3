package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/fault"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// The golden report pins: a small fixed panel of cluster and fleet load
// tests, each export (CSV, JSON, Chrome trace, span CSV) hashed and the
// hashes committed. Any refactor of the replay, routing or exporters
// that changes a single exported byte fails this test. Regenerate with
//
//	go test ./internal/serve -run TestGoldenReports -update-golden
//
// only when an export change is intended and called out in the change.
//
// A run with counters on also pins "<run>/counters": the report's
// counter total with the engine.* scheduler accounting dropped. How the scheduler gets through a run may change;
// what the simulated machines counted may not.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_reports.json from the current replay")

const (
	goldenTuples   = 4096
	goldenRequests = 24
	goldenShards   = 4
)

type goldenRun struct {
	name   string
	pools  []query.Arch // nil: a single-replica Cluster load test
	stream StreamSpec
	spec   func(reqs []Request) LoadSpec
	opt    Options
}

func goldenRuns() []goldenRun {
	mixed := StreamSpec{N: goldenRequests, Seed: 3, Aggregate: true, Q1Every: 3,
		Archs: []query.Arch{query.X86, query.HMC, query.HIVE, query.HIPE, ArchAuto}}
	auto := StreamSpec{N: goldenRequests, Seed: 5, Archs: []query.Arch{ArchAuto}, Q1Every: 3}
	classed := auto
	classed.Classes = 2
	classes := []ClassSpec{
		{Name: "batch", SLOCycles: 20_000, PatienceCycles: 4_000, TimeoutCycles: 20_000, HedgeCycles: 8_000},
		{Name: "rt", SLOCycles: 15_000, TimeoutCycles: 20_000, HedgeCycles: 8_000},
	}
	open := func(gap uint64) func([]Request) LoadSpec {
		return func(reqs []Request) LoadSpec { return OpenLoop(reqs, gap, 0, 9) }
	}
	shed := func(gap uint64) func([]Request) LoadSpec {
		return func(reqs []Request) LoadSpec {
			s := OpenLoop(reqs, gap, 0, 9)
			s.Classes, s.Shed = classes, true
			return s
		}
	}
	return []goldenRun{
		{name: "cluster-open-fixed", stream: StreamSpec{N: goldenRequests, Seed: 3, Aggregate: true},
			spec: open(20_000), opt: Options{Workers: 2}},
		{name: "cluster-closed-auto-q01", stream: auto,
			spec: func(reqs []Request) LoadSpec { return ClosedLoop(reqs, 3) }, opt: Options{Workers: 2}},
		{name: "cluster-estimate", stream: auto,
			spec: open(20_000), opt: Options{Workers: 2, Exec: sweep.ExecEstimate}},
		{name: "cluster-counters-trace", stream: mixed,
			spec: open(20_000), opt: Options{Workers: 2, Counters: true, Trace: true}},
		{name: "fleet-classes-shed", stream: classed, pools: []query.Arch{query.HIPE, query.HIPE, query.X86, query.HMC},
			spec: shed(1_500), opt: Options{Workers: 2, Trace: true}},
		{name: "fleet-closed", stream: auto, pools: []query.Arch{query.HIPE, query.X86},
			spec: func(reqs []Request) LoadSpec { return ClosedLoop(reqs, 3) }, opt: Options{Workers: 2, Trace: true}},
		{name: "fleet-trace-arrivals", stream: classed, pools: []query.Arch{query.HIPE, query.X86},
			spec: func(reqs []Request) LoadSpec {
				s := TraceLoop(reqs, TraceSpec{Mean: 3_000, DiurnalPeriod: 40_000, DiurnalAmp: 0.6,
					BurstFactor: 4, BurstOn: 5_000, BurstOff: 15_000}, 0, 9)
				s.Classes, s.Shed = classes, true
				return s
			}, opt: Options{Workers: 2}},
		{name: "fleet-faulted", stream: classed, pools: []query.Arch{query.HIPE, query.HIPE, query.X86},
			spec: func(reqs []Request) LoadSpec {
				s := shed(3_000)(reqs)
				s.Faults = &fault.Spec{Seed: 7,
					Crashes:    []fault.Crash{{Pool: 0, At: 20_000, Down: 30_000}},
					CrashEvery: 60_000, CrashDown: 15_000,
					StraggleEvery: 30_000, StraggleFor: 10_000, StraggleFactor: 3,
					StallEvery: 20_000, StallFor: 2_000, StallMax: 6_000}
				s.Recovery = &RecoverySpec{MaxRetries: 2, BackoffCycles: 10_000,
					BackoffCapCycles: 80_000, Hedge: true, Failover: true}
				return s
			}, opt: Options{Workers: 2, Counters: true, Trace: true}},
		{name: "fleet-adaptive", stream: auto, pools: []query.Arch{query.HIPE, query.X86},
			spec: func(reqs []Request) LoadSpec {
				s := open(3_000)(reqs)
				s.Adaptive = &cost.AdaptiveConfig{ExplorePct: 10, HalfLife: 4, Seed: 11}
				return s
			}, opt: Options{Workers: 2, Counters: true}},
		{name: "fleet-estimate", stream: classed, pools: []query.Arch{query.HIPE, query.X86},
			spec: shed(1_500), opt: Options{Workers: 2, Exec: sweep.ExecEstimate}},
	}
}

// goldenDigests runs one panel entry and hashes its four exports.
func goldenDigests(t *testing.T, tab *db.Table, run goldenRun) map[string]string {
	t.Helper()
	reqs, err := run.stream.Requests()
	if err != nil {
		t.Fatal(err)
	}
	var rep *Report
	if run.pools == nil {
		c, err := New(sweep.Default(), tab, goldenShards)
		if err != nil {
			t.Fatal(err)
		}
		rep, err = c.LoadTest(run.spec(reqs), run.opt)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
	} else {
		f, err := NewFleet(sweep.Default(), tab, goldenShards, run.pools)
		if err != nil {
			t.Fatal(err)
		}
		rep, err = f.LoadTest(run.spec(reqs), run.opt)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
	}
	out := map[string]string{}
	for name, write := range map[string]func(*bytes.Buffer) error{
		"csv":       func(b *bytes.Buffer) error { return rep.WriteCSV(b) },
		"json":      func(b *bytes.Buffer) error { return rep.WriteJSON(b) },
		"trace":     func(b *bytes.Buffer) error { return rep.WriteChromeTrace(b) },
		"spans_csv": func(b *bytes.Buffer) error { return rep.WriteSpanCSV(b) },
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s/%s: %v", run.name, name, err)
		}
		sum := sha256.Sum256(b.Bytes())
		out[run.name+"/"+name] = hex.EncodeToString(sum[:])
	}
	if run.opt.Counters {
		out[run.name+"/counters"] = counterDigest(rep.Counters)
	}
	return out
}

// counterDigest hashes a counter snapshot, skipping the engine.* keys.
func counterDigest(c *obs.Counters) string {
	h := sha256.New()
	for _, e := range c.Entries() {
		if !strings.HasPrefix(e.Key, "engine.") {
			fmt.Fprintf(h, "%s %d\n", e.Key, e.Value)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenReportsPath() string { return filepath.Join("testdata", "golden_reports.json") }

// TestGoldenReports asserts that every pinned load test still exports
// byte-identical CSV, JSON, Chrome trace and span CSV documents.
func TestGoldenReports(t *testing.T) {
	tab := db.GenerateClusteredMemo(goldenTuples, 42, 10)
	got := map[string]string{}
	for _, run := range goldenRuns() {
		for k, v := range goldenDigests(t, tab, run) {
			got[k] = v
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReportsPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", goldenReportsPath(), len(got))
		return
	}

	raw, err := os.ReadFile(goldenReportsPath())
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: pinned export no longer produced", k)
			continue
		}
		if g != want[k] {
			t.Errorf("%s: export changed: got sha256 %s, want %s", k, g, want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: new export not pinned (run -update-golden)", k)
		}
	}
}
