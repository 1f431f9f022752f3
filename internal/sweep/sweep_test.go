package sweep

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
)

func small() Config {
	c := Default()
	c.Tuples = 256
	return c
}

func TestZeroGridIsOneDefaultCell(t *testing.T) {
	cells, err := Grid{}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("zero grid expanded to %d cells", len(cells))
	}
	c := cells[0]
	want := query.Plan{Arch: query.HIPE, Strategy: query.ColumnAtATime,
		OpSize: 256, Unroll: 32, Q: db.DefaultQ06()}
	if c.Plan != want || c.Tuples != 16384 || c.Seed != 42 || c.Clustered {
		t.Fatalf("default cell wrong: %+v", c)
	}
	if (Grid{}).Size() != 1 {
		t.Fatal("zero grid size wrong")
	}
}

func TestGridExpansionOrderAndSkip(t *testing.T) {
	g := Grid{
		Archs:       []query.Arch{query.X86, query.HMC},
		Strategies:  []query.Strategy{query.ColumnAtATime},
		OpSizes:     []uint32{16, 32, 64, 128, 256},
		Unrolls:     []int{1, 2},
		Tuples:      []int{128},
		Seeds:       []uint64{1},
		SkipInvalid: true,
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// x86 is trimmed to ≤64 B: 3 op sizes × 2 unrolls, then HMC's 5 × 2.
	if len(cells) != 6+10 {
		t.Fatalf("expanded to %d cells, want 16", len(cells))
	}
	if g.Size() != 20 {
		t.Fatalf("pre-skip size %d, want 20", g.Size())
	}
	// Nesting order: arch outermost, then op size, unroll innermost.
	wantPrefix := []string{
		"x86/column-at-a-time/16B/1x", "x86/column-at-a-time/16B/2x",
		"x86/column-at-a-time/32B/1x", "x86/column-at-a-time/32B/2x",
		"x86/column-at-a-time/64B/1x", "x86/column-at-a-time/64B/2x",
		"hmc/column-at-a-time/16B/1x",
	}
	for i, want := range wantPrefix {
		if got := cells[i].Plan.String(); got != want {
			t.Fatalf("cell %d = %s, want %s", i, got, want)
		}
	}
}

func TestExpandRejectsInvalid(t *testing.T) {
	g := Grid{Archs: []query.Arch{query.X86}, OpSizes: []uint32{256},
		Tuples: []int{128}}
	if _, err := g.Expand(); err == nil {
		t.Fatal("x86/256B accepted without SkipInvalid")
	}
	g.SkipInvalid = true
	if _, err := g.Expand(); err == nil {
		t.Fatal("grid that skips every cell should error")
	}
	bad := Grid{Tuples: []int{100}}
	if _, err := bad.Expand(); err == nil {
		t.Fatal("tuple count 100 accepted")
	}
}

func TestExpandAllConcatenatesInOrder(t *testing.T) {
	cells, err := ExpandAll(
		Grid{Archs: []query.Arch{query.HMC}, Tuples: []int{128}},
		Grid{Archs: []query.Arch{query.HIVE}, Tuples: []int{128}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Plan.Arch != query.HMC || cells[1].Plan.Arch != query.HIVE {
		t.Fatalf("wrong concat: %+v", cells)
	}
}

func TestPlanCells(t *testing.T) {
	q := db.DefaultQ06()
	cells := PlanCells(128, 7,
		query.Plan{Arch: query.X86, Strategy: query.ColumnAtATime, OpSize: 64, Unroll: 8, Q: q},
		query.Plan{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q})
	if len(cells) != 2 || cells[1].Tuples != 128 || cells[1].Seed != 7 {
		t.Fatalf("wrong cells: %+v", cells)
	}
}

// acceptanceGrid is a ≥48-cell sweep spanning every deterministic axis:
// architectures, op sizes, seeds and two selectivity variants.
func acceptanceGrid() Grid {
	loose := db.DefaultQ06()
	loose.QtyHi = 50
	return Grid{
		Archs:       []query.Arch{query.X86, query.HMC, query.HIVE, query.HIPE},
		Strategies:  []query.Strategy{query.ColumnAtATime},
		OpSizes:     []uint32{64, 128, 256},
		Unrolls:     []int{1, 8},
		Queries:     []db.Q06{db.DefaultQ06(), loose},
		Tuples:      []int{256},
		Seeds:       []uint64{1, 2},
		SkipInvalid: true,
	}
}

func export(t *testing.T, rs *ResultSet) (csvBytes, jsonBytes []byte) {
	t.Helper()
	var cbuf, jbuf bytes.Buffer
	if err := rs.WriteCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	return cbuf.Bytes(), jbuf.Bytes()
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	g := acceptanceGrid()
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 48 {
		t.Fatalf("acceptance grid has %d cells, want ≥48", len(cells))
	}

	workerCounts := []int{1, 2, 8, runtime.GOMAXPROCS(0)}
	var refCSV, refJSON []byte
	for _, w := range workerCounts {
		rs, err := Run(small(), g, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		csvB, jsonB := export(t, rs)
		if refCSV == nil {
			refCSV, refJSON = csvB, jsonB
			continue
		}
		if !bytes.Equal(refCSV, csvB) {
			t.Errorf("CSV differs between 1 and %d workers", w)
		}
		if !bytes.Equal(refJSON, jsonB) {
			t.Errorf("JSON differs between 1 and %d workers", w)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	g := Grid{Archs: []query.Arch{query.HIPE}, Unrolls: []int{1, 32}, Tuples: []int{128}}
	seen := 0
	last := 0
	_, err := Run(small(), g, Options{Workers: 2, OnCell: func(done, total int, r CellResult) {
		seen++
		if total != 2 {
			t.Errorf("total = %d", total)
		}
		if done <= last {
			t.Errorf("done not monotonic: %d after %d", done, last)
		}
		last = done
	}})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("callback fired %d times", seen)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rs, err := Run(small(), Grid{
		Archs:   []query.Arch{query.X86, query.HIPE},
		Unrolls: []int{8}, OpSizes: []uint32{64, 256},
		Tuples: []int{256}, SkipInvalid: true,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs[0], CSVHeader) {
		t.Fatalf("header %v", recs[0])
	}
	if len(recs) != len(rs.Cells)+1 {
		t.Fatalf("%d records for %d cells", len(recs)-1, len(rs.Cells))
	}
	col := map[string]int{}
	for i, name := range CSVHeader {
		col[name] = i
	}
	// The x86 64 B cell is its group's baseline: speedup exactly 1.
	x86 := recs[1]
	if x86[col["arch"]] != "x86" || x86[col["speedup"]] != "1" {
		t.Fatalf("x86 row wrong: %v", x86)
	}
	for i, rec := range recs[1:] {
		if rec[col["tuples"]] != "256" {
			t.Errorf("row %d tuples = %s", i, rec[col["tuples"]])
		}
		if rec[col["cycles"]] == "0" {
			t.Errorf("row %d has zero cycles", i)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rs, err := Run(small(), Grid{Tuples: []int{256}, Seeds: []uint64{1, 2}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, back) {
		t.Fatalf("JSON round trip diverged:\n%+v\n%+v", rs, back)
	}
}

func TestErrorPropagation(t *testing.T) {
	q := db.DefaultQ06()
	good := Cell{Plan: query.Plan{Arch: query.HIPE, Strategy: query.ColumnAtATime,
		OpSize: 256, Unroll: 32, Q: q}, Tuples: 128, Seed: 1}
	// HIPE tuple-at-a-time fails plan validation inside query.Prepare —
	// a runtime cell failure from the engine's point of view.
	bad := func(u int) Cell {
		return Cell{Plan: query.Plan{Arch: query.HIPE, Strategy: query.TupleAtATime,
			OpSize: 256, Unroll: u, Q: q}, Tuples: 128, Seed: 1}
	}
	// One 64-row block runs whole but cannot be cut into two shards.
	tiny := good
	tiny.Tuples = 64
	cells := []Cell{good, tiny, bad(1), bad(2)}
	for _, tc := range []struct {
		shards    int
		firstFail string
	}{
		{shards: 0, firstFail: "cell 2 ("},
		{shards: 2, firstFail: "cell 1 ("},
	} {
		for _, workers := range []int{1, 8} {
			fired := make([]int, len(cells))
			rs, err := RunCells(small(), cells, Options{
				Workers:    workers,
				CellShards: tc.shards,
				OnCell:     func(done, total int, r CellResult) { fired[r.Index]++ },
			})
			if err == nil {
				t.Fatalf("shards=%d workers=%d: failing cell did not propagate", tc.shards, workers)
			}
			if rs != nil {
				t.Fatalf("shards=%d workers=%d: non-nil result set on error", tc.shards, workers)
			}
			// The reported failure is the first in cell order, whatever
			// order the workers hit them in.
			if !strings.Contains(err.Error(), tc.firstFail) {
				t.Fatalf("shards=%d workers=%d: error %q does not name %q",
					tc.shards, workers, err, tc.firstFail)
			}
			// Progress still reaches the total: every cell reports once,
			// failed cells included.
			for i, n := range fired {
				if n != 1 {
					t.Fatalf("shards=%d workers=%d: OnCell fired %d times for cell %d, want 1",
						tc.shards, workers, n, i)
				}
			}
		}
	}
}

func TestRunInheritsConfigWorkload(t *testing.T) {
	cfg := Default()
	cfg.Tuples = 128
	cfg.Seed = 7
	rs, err := Run(cfg, Grid{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := rs.Cells[0].Cell; c.Tuples != 128 || c.Seed != 7 {
		t.Fatalf("grid did not inherit config workload: %+v", c)
	}
	// An explicit axis still wins over the config.
	rs, err = Run(cfg, Grid{Tuples: []int{256}, Seeds: []uint64{9}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := rs.Cells[0].Cell; c.Tuples != 256 || c.Seed != 9 {
		t.Fatalf("explicit axis overridden: %+v", c)
	}
}

func TestZeroNoiseClusteredLayout(t *testing.T) {
	cells, err := Grid{Clustered: []bool{true}, Tuples: []int{128}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].NoiseDays != 0 {
		t.Fatalf("zero noise coerced to %d", cells[0].NoiseDays)
	}
}

func TestSpeedupBaselines(t *testing.T) {
	// With x86 in the group, the best x86 cell is the 1.0 baseline and
	// the cube architectures land above it.
	rs, err := Run(small(), Grid{
		Archs:   []query.Arch{query.X86, query.HIPE},
		OpSizes: []uint32{64, 256}, Unrolls: []int{8},
		Tuples: []int{256}, SkipInvalid: true,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var x86Speedup, hipeSpeedup float64
	for _, c := range rs.Cells {
		switch c.Cell.Plan.Arch {
		case query.X86:
			x86Speedup = c.Speedup
		case query.HIPE:
			if c.Cell.Plan.OpSize == 256 {
				hipeSpeedup = c.Speedup
			}
		}
	}
	if x86Speedup != 1.0 {
		t.Fatalf("x86 baseline speedup %f", x86Speedup)
	}
	if hipeSpeedup <= 1.0 {
		t.Fatalf("HIPE speedup %f not above x86 baseline", hipeSpeedup)
	}

	// Without x86, the group's best cell is the 1.0 reference.
	rs, err = Run(small(), Grid{Unrolls: []int{1, 32}, Tuples: []int{256}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, c := range rs.Cells {
		if c.Speedup > best {
			best = c.Speedup
		}
	}
	if best != 1.0 {
		t.Fatalf("group-best speedup %f, want 1.0", best)
	}
}

func TestBestPerArch(t *testing.T) {
	rs, err := Run(small(), Grid{
		Archs:   []query.Arch{query.HMC, query.HIPE},
		Unrolls: []int{1, 32}, Tuples: []int{256},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	best := rs.Best()
	if len(best) != 2 || best[0].Cell.Plan.Arch != query.HMC || best[1].Cell.Plan.Arch != query.HIPE {
		t.Fatalf("best per arch wrong: %+v", best)
	}
	for _, b := range best {
		for _, c := range rs.Cells {
			if c.Cell.Plan.Arch == b.Cell.Plan.Arch && c.Result.Cycles < b.Result.Cycles {
				t.Fatalf("%s best is not minimal", b.Cell.Plan.Arch)
			}
		}
	}
}

func TestClusteredAxis(t *testing.T) {
	rs, err := Run(small(), Grid{
		Clustered: []bool{false, true}, NoiseDays: 10, Tuples: []int{256},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Cells) != 2 {
		t.Fatalf("%d cells", len(rs.Cells))
	}
	uniform, clustered := rs.Cells[0], rs.Cells[1]
	if uniform.Cell.Clustered || !clustered.Cell.Clustered {
		t.Fatalf("clustered axis order wrong")
	}
	if clustered.Result.Squashed <= uniform.Result.Squashed {
		t.Fatalf("clustering did not raise squashes: %d vs %d",
			clustered.Result.Squashed, uniform.Result.Squashed)
	}
}
