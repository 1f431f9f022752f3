package sweep

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

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
)

// The golden exports pin: a small fixed panel of sweeps, each run's CSV
// and JSON export hashed and the hashes committed. Any refactor of the
// cell driver, the shard merge, the estimate path or the exporters that
// changes a single exported byte fails this test. Regenerate with
//
//	go test ./internal/sweep -run TestGoldenExports -update-golden
//
// only when an export change is intended and called out in the change.
//
// A panel with counters on also pins "<panel>/counters": every cell's
// counter snapshot with the engine.* scheduler accounting dropped. How
// the scheduler gets through a run may change; what the simulated
// machine counted may not.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_exports.json from the current driver")

const goldenTuples = 4096

type goldenSweep struct {
	name string
	grid Grid
	opt  Options
}

func goldenSweeps() []goldenSweep {
	allArchs := []query.Arch{query.X86, query.HMC, query.HIVE, query.HIPE}
	withAuto := append(append([]query.Arch(nil), allArchs...), query.ArchAuto)
	bothLayouts := []bool{false, true}
	grid := func(g Grid) Grid {
		g.Tuples = []int{goldenTuples}
		g.Seeds = []uint64{42}
		g.NoiseDays = 10
		g.SkipInvalid = true
		return g
	}
	return []goldenSweep{
		{name: "exact-fixed", grid: grid(Grid{Archs: allArchs,
			OpSizes: []uint32{64, 256}, Unrolls: []int{8, 32},
			Queries:   []db.Q06{db.DefaultQ06(), q6WithQty(10)},
			Q1Queries: []db.Q01{db.DefaultQ01()}}),
			opt: Options{Workers: 2}},
		{name: "clustered-strategies", grid: grid(Grid{Archs: allArchs,
			Strategies: []query.Strategy{query.TupleAtATime, query.ColumnAtATime},
			OpSizes:    []uint32{64}, Unrolls: []int{8},
			Queries: []db.Q06{q6WithQty(24)}, Clustered: bothLayouts}),
			opt: Options{Workers: 2}},
		{name: "auto-axis", grid: grid(Grid{Archs: []query.Arch{query.X86, query.HIPE, query.ArchAuto},
			Queries:   []db.Q06{q6WithQty(10), q6WithQty(50)},
			Q1Queries: []db.Q01{q1WithCut(1278)}, Clustered: bothLayouts}),
			opt: Options{Workers: 2}},
		{name: "counters", grid: grid(Grid{Archs: []query.Arch{query.HMC, query.HIPE},
			Aggregate: []bool{false, true},
			Q1Queries: []db.Q01{db.DefaultQ01()}, Queries: []db.Q06{db.DefaultQ06()},
			Clustered: []bool{true}}),
			opt: Options{Workers: 2, Counters: true}},
		{name: "sharded-auto-counters", grid: grid(Grid{Archs: []query.Arch{query.X86, query.HIPE, query.ArchAuto},
			Queries:   []db.Q06{q6WithQty(10), q6WithQty(24)},
			Q1Queries: []db.Q01{q1WithCut(1278)}, Clustered: bothLayouts}),
			opt: Options{Workers: 3, CellShards: 4, Counters: true}},
		{name: "estimate-sharded", grid: grid(Grid{Archs: []query.Arch{query.X86, query.HIPE, query.ArchAuto},
			Queries:   []db.Q06{q6WithQty(10), q6WithQty(24)},
			Q1Queries: []db.Q01{q1WithCut(1278)}, Clustered: bothLayouts}),
			opt: Options{Workers: 3, CellShards: 4, Exec: ExecEstimate}},
		{name: "estimate-auto-q01", grid: grid(Grid{Archs: withAuto,
			Strategies: []query.Strategy{query.TupleAtATime, query.ColumnAtATime},
			OpSizes:    []uint32{64, 256}, Unrolls: []int{8, 32}, Fused: []bool{false, true},
			Queries:   []db.Q06{q6WithQty(1), db.DefaultQ06()},
			Q1Queries: []db.Q01{db.DefaultQ01(), q1WithCut(1500)}, Clustered: bothLayouts}),
			opt: Options{Workers: 2, Exec: ExecEstimate}},
		// The Figure 3 shapes at unroll 1: HIVE has the most stalled
		// sequencer cycles, x86 tuple-at-a-time is the ROB-full case.
		{name: "figure-counters", grid: grid(Grid{Archs: allArchs,
			Strategies: []query.Strategy{query.TupleAtATime, query.ColumnAtATime},
			OpSizes:    []uint32{16, 256}, Unrolls: []int{1}}),
			opt: Options{Workers: 2, Counters: true}},
	}
}

// goldenDigests runs one panel entry and hashes its two exports.
func goldenDigests(t *testing.T, g goldenSweep) map[string]string {
	t.Helper()
	rs, err := Run(Default(), g.grid, g.opt)
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	out := map[string]string{}
	for name, write := range map[string]func(*bytes.Buffer) error{
		"csv":  func(b *bytes.Buffer) error { return rs.WriteCSV(b) },
		"json": func(b *bytes.Buffer) error { return rs.WriteJSON(b) },
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s/%s: %v", g.name, name, err)
		}
		sum := sha256.Sum256(b.Bytes())
		out[g.name+"/"+name] = hex.EncodeToString(sum[:])
	}
	if g.opt.Counters {
		snaps := make([]*obs.Counters, len(rs.Cells))
		for i := range rs.Cells {
			snaps[i] = rs.Cells[i].Counters
		}
		out[g.name+"/counters"] = counterDigest(snaps)
	}
	return out
}

// counterDigest hashes counter snapshots in order, skipping the
// engine.* keys.
func counterDigest(snaps []*obs.Counters) string {
	h := sha256.New()
	for i, c := range snaps {
		fmt.Fprintf(h, "#%d\n", i)
		for _, e := range c.Entries() {
			if !strings.HasPrefix(e.Key, "engine.") {
				fmt.Fprintf(h, "%s %d\n", e.Key, e.Value)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenExportsPath() string { return filepath.Join("testdata", "golden_exports.json") }

// TestGoldenExports asserts that every pinned sweep still exports
// byte-identical CSV and JSON documents.
func TestGoldenExports(t *testing.T) {
	got := map[string]string{}
	for _, g := range goldenSweeps() {
		for k, v := range goldenDigests(t, g) {
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
		if err := os.WriteFile(goldenExportsPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", goldenExportsPath(), len(got))
		return
	}

	raw, err := os.ReadFile(goldenExportsPath())
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
