// The estimate-mode task leg: no machines are built. A task's cycle
// figure comes from the analytic cost model's structural estimators
// (internal/cost) walking the query description the same way the
// backend generators do, and its energy figure from the model's
// DRAM+link prediction. Estimate cells run through the same driver as
// exact ones, so auto cells route through the identical whole-table
// cost.Pick call and routing decisions — and their export columns — are
// byte-identical across modes. What estimate mode cannot produce, it
// refuses up front (Options.validate): machine counters, per-shard
// machines and anything else that needs a real simulation.
package sweep

import (
	"math"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/query"
)

// estimateBreakdown maps a cost estimate onto the energy-report shape:
// the model predicts DRAM read traffic and link energy only, so those
// are the populated components — DRAMPJ() and TotalPJ() then reproduce
// the model's own figures in the shared export columns.
func estimateBreakdown(pr cost.Params, est cost.Estimate) energy.Breakdown {
	dram := est.DRAMBytes * 8 * pr.DRAMReadBitPJ
	return energy.Breakdown{ReadPJ: dram, LinkPJ: est.EnergyPJ - dram}
}

// estimate prices plan over tab with the cost model instead of running
// it — typically orders of magnitude faster than simulation. An auto
// cell's routing decision d already priced its chosen plan on the whole
// table, which is tab (estimate cells are always one shard, see
// Options.validate), so that estimate is reused.
func (r *cellRun) estimate(tab *db.Table, plan query.Plan, d *cost.Decision, out *CellResult) error {
	var est cost.Estimate
	if d != nil {
		est = d.Estimates[d.ChosenIndex]
	} else {
		var err error
		if est, err = cost.EstimatePlan(r.params, plan, cost.ProfileFor(tab, plan)); err != nil {
			return err
		}
	}
	out.Result = Result{
		Plan:   plan,
		Cycles: uint64(math.Round(est.Cycles)),
		Energy: estimateBreakdown(r.params, est),
	}
	return nil
}
