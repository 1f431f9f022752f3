// Shard partials and their merge. With Options.CellShards above 1 each
// exact cell's table is cut into contiguous shards (db.Partition), each
// shard runs as its own task on its own machine, and the cell's
// partials fold in shard order once its last task finishes. Shard
// machines share no state until the merge, and the merge is a pure fold
// over index-ordered slots, so a sharded sweep is byte-identical at any
// worker count — the same invariant the serving cluster's
// scatter-gather path holds, and the same shape its reports use (cycles
// as the critical path over shards, totals summed). A whole-table cell
// is the one-shard case: nothing to fold.
package sweep

import "github.com/hipe-sim/hipe/internal/energy"

// shardRows is the row count of the largest of the n shards db.Partition
// cuts a tuples-row table into: the first shards take the extra 64-row
// blocks.
func shardRows(tuples, n int) int {
	return (tuples + 64*n - 1) / (64 * n) * 64
}

// addShard folds shard partial p into the cell's merged result: cycles
// as the critical path (slowest shard: the shards would run
// concurrently on real hardware), energy, verification, squash, group
// and counter totals summed.
func (cr *CellResult) addShard(p CellResult) {
	r := &cr.Result
	r.Cycles = max(r.Cycles, p.Result.Cycles)
	addBreakdown(&r.Energy, p.Result.Energy)
	r.Checked += p.Result.Checked
	r.Squashed += p.Result.Squashed
	r.SquashedDRAMBytes += p.Result.SquashedDRAMBytes
	for g := range r.Groups {
		r.Groups[g].Add(p.Result.Groups[g])
	}
	cr.Counters.Add(p.Counters)
}

// addBreakdown accumulates o into b component-wise.
func addBreakdown(b *energy.Breakdown, o energy.Breakdown) {
	b.ActivationPJ += o.ActivationPJ
	b.ReadPJ += o.ReadPJ
	b.WritePJ += o.WritePJ
	b.RefreshPJ += o.RefreshPJ
	b.BackgroundPJ += o.BackgroundPJ
	b.LinkPJ += o.LinkPJ
	b.LogicPJ += o.LogicPJ
}
