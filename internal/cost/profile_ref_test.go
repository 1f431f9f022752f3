package cost

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
)

// profileRef is the reference profiler: one table-sized liveness slice,
// walked stage by stage over the whole table, each stage counting the
// chunks that still hold a live tuple. It tests every tuple through
// Stage.Match, so comparing ProfileFor with it also checks stageRange's
// reduction. ProfileFor must match it bit for bit.
func profileRef(tab *db.Table, p query.Plan) Profile {
	d := p.Desc()
	tuplesPerChunk := int(p.OpSize) / db.ColumnWidth
	if p.Strategy == query.TupleAtATime {
		tuplesPerChunk = int(p.OpSize) / db.TupleBytes
	}
	if tuplesPerChunk < 1 {
		tuplesPerChunk = 1
	}
	prof := Profile{
		Tuples:   tab.N,
		Stages:   d.Stages,
		Survival: make([]float64, len(d.Stages)),
	}
	if tab.N == 0 {
		return prof
	}
	alive := make([]bool, tab.N)
	for i := range alive {
		alive[i] = true
	}
	matches := 0
	chunks := (tab.N + tuplesPerChunk - 1) / tuplesPerChunk
	for s, st := range d.Stages {
		col := query.Column(tab, st.Col)
		liveChunks := 0
		last := s == len(d.Stages)-1
		for c := 0; c < chunks; c++ {
			base := c * tuplesPerChunk
			end := min(base+tuplesPerChunk, tab.N)
			live := false
			for i := base; i < end; i++ {
				if !alive[i] {
					continue
				}
				if !st.Match(col[i]) {
					alive[i] = false
					continue
				}
				live = true
				if last {
					matches++
				}
			}
			if live {
				liveChunks++
			}
		}
		prof.Survival[s] = float64(liveChunks) / float64(chunks)
	}
	prof.Sel = float64(matches) / float64(tab.N)
	return prof
}

// profilePredicates returns the predicates TestProfileForMatchesReference
// profiles: the defaults, random Q06 and Q01 bounds, an empty date
// window, and bounds stageRange cannot reduce to a range (a `< MinInt32`
// bound), so the scan falls back to Stage.Match on the first stage and,
// separately, on the last.
func profilePredicates() []query.Plan {
	r := db.NewRNG(32)
	ps := []query.Plan{
		{Q: db.DefaultQ06()},
		{Kind: query.Q1Agg, Q1: db.DefaultQ01()},
		{Q: db.Q06{ShipLo: db.Day19950101, ShipHi: db.Day19950101, DiscLo: 0, DiscHi: 10, QtyHi: 51}},
		{Q: db.Q06{ShipLo: 0, ShipHi: math.MinInt32, DiscLo: 0, DiscHi: 10, QtyHi: 51}},
		{Q: db.Q06{ShipLo: 0, ShipHi: db.ShipDateDays, DiscLo: 0, DiscHi: 10, QtyHi: math.MinInt32}},
	}
	for range 6 {
		lo := int32(r.Intn(db.ShipDateDays))
		disc := int32(r.Intn(11))
		ps = append(ps, query.Plan{Q: db.Q06{
			ShipLo: lo, ShipHi: lo + int32(r.Intn(800)),
			DiscLo: disc, DiscHi: disc + int32(r.Intn(4)),
			QtyHi: 1 + int32(r.Intn(51)),
		}})
	}
	for range 4 {
		ps = append(ps, query.Plan{Kind: query.Q1Agg, Q1: db.Q01{ShipCut: int32(r.Intn(db.ShipDateDays))}})
	}
	return ps
}

// TestProfileForMatchesReference pins the chunk-local scan to the
// table-sized reference: Tuples, Sel and every Survival entry equal by
// their bits, over row counts around the 64-tuple word, uniform and
// date-clustered tables, both strategies and op sizes 16 to 1,024 B
// (chunks of 1 to 256 tuples, so a chunk spans up to four words).
func TestProfileForMatchesReference(t *testing.T) {
	preds := profilePredicates()
	compared := 0
	for _, n := range []int{0, 1, 63, 64, 65, 4097} {
		tables := []struct {
			name string
			tab  *db.Table
		}{
			{"uniform", db.Generate(n, 42)},
			{"clustered", db.GenerateClustered(n, 42, 0)},
		}
		for _, tc := range tables {
			for _, strat := range []query.Strategy{query.TupleAtATime, query.ColumnAtATime} {
				for op := uint32(16); op <= 1024; op *= 2 {
					for pi, pred := range preds {
						p := pred
						p.Strategy, p.OpSize = strat, op
						name := fmt.Sprintf("%s/%d rows/%s/%d B/predicate %d", tc.name, n, strat, op, pi)
						checkProfile(t, name, ProfileFor(tc.tab, p), profileRef(tc.tab, p))
						compared++
					}
				}
			}
		}
	}
	t.Logf("%d profiles compared", compared)
}

func checkProfile(t *testing.T, name string, got, want Profile) {
	t.Helper()
	if got.Tuples != want.Tuples {
		t.Errorf("%s: Tuples %d, reference %d", name, got.Tuples, want.Tuples)
	}
	if math.Float64bits(got.Sel) != math.Float64bits(want.Sel) {
		t.Errorf("%s: Sel %v, reference %v", name, got.Sel, want.Sel)
	}
	if !reflect.DeepEqual(got.Stages, want.Stages) {
		t.Errorf("%s: Stages %v, reference %v", name, got.Stages, want.Stages)
	}
	if len(got.Survival) != len(want.Survival) {
		t.Fatalf("%s: %d survival entries, reference %d", name, len(got.Survival), len(want.Survival))
	}
	for s := range want.Survival {
		if math.Float64bits(got.Survival[s]) != math.Float64bits(want.Survival[s]) {
			t.Errorf("%s: Survival[%d] %v, reference %v", name, s, got.Survival[s], want.Survival[s])
		}
	}
}
