package sweep

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
)

// wideResultSet is a result set of n cells with every optional CSV
// column active: routing, exec_mode, shards and counters. It runs one
// small auto and fixed grid with counters and repeats its cells, every
// third marked estimate and every fifth sharded.
func wideResultSet(t *testing.T, n int) *ResultSet {
	t.Helper()
	cfg := Default()
	cfg.Tuples = 512
	g := Grid{
		Archs:     []query.Arch{query.ArchAuto, query.HIPE},
		OpSizes:   []uint32{256},
		Unrolls:   []int{32},
		Queries:   []db.Q06{db.DefaultQ06()},
		Q1Queries: []db.Q01{db.DefaultQ01()},
	}
	base, err := Run(cfg, g, Options{Workers: 2, Counters: true})
	if err != nil {
		t.Fatal(err)
	}
	rs := &ResultSet{Cells: make([]CellResult, n)}
	for i := range rs.Cells {
		c := base.Cells[i%len(base.Cells)]
		c.Index = i
		if i%3 == 0 {
			c.Mode = ExecEstimate
		}
		if i%5 == 0 {
			c.Shards = 4
		}
		rs.Cells[i] = c
	}
	if !rs.HasRouting() || !rs.HasModes() || !rs.HasSharding() || !rs.HasCounters() {
		t.Fatal("the result set leaves an optional column group out")
	}
	return rs
}

// TestWriteCSVDoNotAllocatePerRow: a result set's CSV export allocates
// as often at 1,000 cells as at 250 — no row builds a record slice, no
// cell a string.
func TestWriteCSVDoNotAllocatePerRow(t *testing.T) {
	rs := wideResultSet(t, 1_000)
	allocs := func(rows int) float64 {
		cut := &ResultSet{Cells: rs.Cells[:rows]}
		return testing.AllocsPerRun(5, func() {
			if err := cut.WriteCSV(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(250), allocs(1_000); small != large {
		t.Fatalf("WriteCSV allocates %v times at 250 rows, %v at 1,000", small, large)
	}
}

// errWrite is failAfter's error.
var errWrite = errors.New("disk full")

// failAfter accepts k bytes, then fails every write.
type failAfter struct{ k, n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if room := max(w.k-w.n, 0); len(p) > room {
		w.n += room
		return room, errWrite
	}
	w.n += len(p)
	return len(p), nil
}

// TestWriteCSVReturnsWriteErrors: the export returns its writer's
// error, whether it strikes in the first buffered chunk or a later one.
func TestWriteCSVReturnsWriteErrors(t *testing.T) {
	rs := wideResultSet(t, 400)
	var full bytes.Buffer
	if err := rs.WriteCSV(&full); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, full.Len() / 2, full.Len() - 1} {
		if err := rs.WriteCSV(&failAfter{k: k}); !errors.Is(err, errWrite) {
			t.Fatalf("failing after %d of %d bytes: error %v, want %v", k, full.Len(), err, errWrite)
		}
	}
}
