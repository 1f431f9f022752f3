package serve

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// wideReport is an estimate-mode fleet report of n requests with every
// optional CSV column active: fleet, fault, routing, adaptive and
// exec_mode.
func wideReport(t *testing.T, n int) *Report {
	t.Helper()
	spec := admitSpecs()["faulted"].spec
	spec.Requests = admitStream(n)
	spec.Adaptive = &cost.AdaptiveConfig{ExplorePct: 10, HalfLife: 4, Seed: 11}
	r, err := testFleet(t, 4, query.HIPE, query.X86, query.HMC).LoadTest(spec, Options{Workers: 2, Exec: sweep.ExecEstimate})
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasFleet() || !r.HasFaults() || !r.HasRouting() || !r.HasAdaptive() || r.ExecMode == "" {
		t.Fatal("the report leaves an optional column group out")
	}
	return r
}

// TestWriteCSVDoNotAllocatePerRow: a report's CSV export allocates as
// often at 1,000 rows as at 250 — no row builds a record slice, no cell
// a string.
func TestWriteCSVDoNotAllocatePerRow(t *testing.T) {
	r := wideReport(t, 1_200)
	if len(r.Requests) < 1_000 {
		t.Fatalf("%d requests served, want at least 1,000", len(r.Requests))
	}
	allocs := func(rows int) float64 {
		cut := *r
		cut.Requests = r.Requests[:rows]
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

// TestReportExportsReturnWriteErrors: the request CSV and the span CSV
// return their writer's error, whether it strikes in the first buffered
// chunk or a later one.
func TestReportExportsReturnWriteErrors(t *testing.T) {
	r := wideReport(t, 1_200)
	spec := admitSpecs()["faulted"]
	traced, err := testFleet(t, 4, query.HIPE, query.X86).LoadTest(spec.spec, spec.opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, export := range []func(io.Writer) error{r.WriteCSV, traced.WriteSpanCSV} {
		var full bytes.Buffer
		if err := export(&full); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, full.Len() / 2, full.Len() - 1} {
			if err := export(&failAfter{k: k}); !errors.Is(err, errWrite) {
				t.Fatalf("failing after %d of %d bytes: error %v, want %v", k, full.Len(), err, errWrite)
			}
		}
	}
}
