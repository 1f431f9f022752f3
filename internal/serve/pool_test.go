package serve

import (
	"bytes"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// TestReportRepeatsAfterSweepCells: a cluster's shard legs draw their
// machines from the process-wide pool, so between two load tests those
// machines may run anything else of their configuration. A report made
// on machines that last ran sweep cells — every architecture, Q06 and
// Q01 plans, a uniform and a date-clustered table — must be
// byte-identical to one made on fresh machines.
func TestReportRepeatsAfterSweepCells(t *testing.T) {
	c := testCluster(t, 2)
	mc := *c.cfg.Machine
	spec := OpenLoop(testStream(t, 8), 50_000, 0, 11)
	report := func() []byte {
		t.Helper()
		r, err := c.LoadTest(spec, Options{Workers: 2, Counters: true})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	// A Put of another configuration drops the pool's idle machines, so
	// the first report builds its machines fresh.
	other := mc
	other.ImageBytes += 64 << 10
	m, err := machine.Get(other)
	if err != nil {
		t.Fatal(err)
	}
	machine.Put(m)
	fresh := report()

	rows := c.shards[len(c.shards)-1].N
	cells, err := sweep.Grid{
		Archs:       []query.Arch{query.X86, query.HMC, query.HIVE, query.HIPE},
		Strategies:  []query.Strategy{query.ColumnAtATime, query.TupleAtATime},
		OpSizes:     []uint32{64},
		Unrolls:     []int{8},
		Queries:     []db.Q06{db.DefaultQ06()},
		Q1Queries:   []db.Q01{db.DefaultQ01()},
		Tuples:      []int{rows},
		Seeds:       []uint64{7},
		Clustered:   []bool{false, true},
		NoiseDays:   10,
		SkipInvalid: true,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.RunCells(sweep.Config{Machine: &mc}, cells, sweep.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if got := report(); !bytes.Equal(got, fresh) {
		t.Fatalf("report on machines that last ran sweep cells differs from the fresh machines' (%d vs %d bytes)",
			len(got), len(fresh))
	}
}
