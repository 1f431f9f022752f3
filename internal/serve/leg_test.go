package serve

import (
	"reflect"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// TestShardedCellMatchesClusterQuery pins the one task leg across the
// two layers: a 4-shard sweep cell and a Cluster.Query over the same 4
// shards run the same legs and the same fold. In exact mode they agree
// on cycles, energy, verification and squash totals, machine counters
// and answers; in estimate mode on cycles and energy.
func TestShardedCellMatchesClusterQuery(t *testing.T) {
	const tuples, shards = 4096, 4
	cfg := sweep.Config{Tuples: tuples, Seed: 42}
	tab := db.GenerateMemo(tuples, 42)
	c, err := New(cfg, tab, shards)
	if err != nil {
		t.Fatal(err)
	}
	plans := []query.Plan{
		DefaultPlan(query.HIPE, db.DefaultQ06()),
		DefaultPlan(query.X86, db.DefaultQ06()),
		DefaultPlan(query.HIVE, db.DefaultQ06()),
		DefaultPlan(query.HMC, db.DefaultQ06()),
		DefaultQ1Plan(query.HIPE, db.DefaultQ01()),
	}
	cells := make([]sweep.Cell, len(plans))
	for i, p := range plans {
		cells[i] = sweep.Cell{Plan: p, Tuples: tuples, Seed: 42}
	}
	for _, mode := range []sweep.ExecMode{sweep.ExecExact, sweep.ExecEstimate} {
		counters := mode == sweep.ExecExact
		rs, err := sweep.RunCells(cfg, cells, sweep.Options{Workers: 2, Exec: mode,
			CellShards: shards, Counters: counters})
		if err != nil {
			t.Fatalf("%s sweep: %v", mode, err)
		}
		for i, p := range plans {
			resp, err := c.Query(Request{Plan: p}, Options{Workers: 2, Exec: mode, Counters: counters})
			if err != nil {
				t.Fatalf("%s %s: %v", mode, p, err)
			}
			cell := rs.Cells[i]
			shard := sweep.Fold(len(resp.Shards), func(s int) sweep.Partial { return resp.Shards[s].Partial })
			if cell.Result.Cycles != resp.Cycles || cell.Result.Energy != shard.Energy {
				t.Errorf("%s %s: cell %d cycles %+v, cluster %d cycles %+v",
					mode, p, cell.Result.Cycles, cell.Result.Energy, resp.Cycles, shard.Energy)
			}
			if mode == sweep.ExecEstimate {
				continue
			}
			if !reflect.DeepEqual(cell.Result, shard.Result) {
				t.Errorf("%s: cell result %+v, cluster shards fold to %+v", p, cell.Result, shard.Result)
			}
			if got, want := cell.Counters.String(), resp.Counters.String(); got == "" || got != want {
				t.Errorf("%s: cell counters differ from the cluster's:\n%s\nvs\n%s", p, got, want)
			}
			if !reflect.DeepEqual(cell.Result.Groups, resp.Groups) {
				t.Errorf("%s: cell groups %+v, cluster %+v", p, cell.Result.Groups, resp.Groups)
			}
		}
	}
}
