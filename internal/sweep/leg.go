// The task leg and the shard fold: the one unit of work under every
// sweep cell and every serving shard task, and the one merge of its
// partials. A leg runs one plan over one table or shard — on a machine
// from the process-wide pool (machine.Get) in exact mode, through the
// analytic cost model in estimate mode — and returns a Partial either
// way. A cell or request cut into contiguous shards (db.Partition)
// runs one leg per shard and folds the partials in shard order: cycles
// as the critical path (the shards run concurrently on real hardware),
// everything else summed. Legs share no state until the fold, and the
// fold reads index-ordered slots, so sharded results are byte-identical
// at any worker count. A whole-table cell is the one-shard case:
// nothing to fold.
package sweep

import (
	"math"
	"slices"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
)

// Partial is one leg's outcome. An estimate leg fills Plan, Cycles and
// Energy only: it computes no answer, so Checked is 0 and Groups nil.
type Partial struct {
	Result
	// Counters is the exact leg's machine-counter snapshot when
	// Leg.Counters is set; nil — and JSON-omitted — otherwise.
	Counters *obs.Counters `json:",omitempty"`
}

// Leg holds what a leg needs besides its table and plan.
type Leg struct {
	// Config supplies the machine and energy models of exact legs. With
	// Config.Machine set, every leg draws machines of that one
	// configuration; unset, each leg's default machine is sized to its
	// table.
	Config Config
	// Params is the cost model estimate legs price with.
	Params cost.Params
	Exec   ExecMode
	// Counters captures each exact leg's machine counters.
	Counters bool
}

// Run runs or prices plan p over tab. Exact mode takes a machine from
// the process-wide pool, simulates, verifies against the reference
// evaluator, audits energy and, with Counters set, snapshots the
// machine's counters, all before the machine goes back to the pool: the
// Partial references nothing of it. Estimate mode builds no machine:
// cycles and energy come from the cost model walking tab's selectivity
// profile.
func (l *Leg) Run(tab *db.Table, p query.Plan) (Partial, error) {
	if l.Exec == ExecEstimate {
		est, err := cost.EstimatePlan(l.Params, p, cost.ProfileFor(tab, p))
		if err != nil {
			return Partial{}, err
		}
		// The model predicts DRAM read traffic and link energy only, so
		// those are the populated components: DRAMPJ() and TotalPJ()
		// then reproduce the model's own figures.
		dram := est.DRAMBytes * 8 * l.Params.DRAMReadBitPJ
		return Partial{Result: Result{
			Plan:   p,
			Cycles: uint64(math.Round(est.Cycles)),
			Energy: energy.Breakdown{ReadPJ: dram, LinkPJ: est.EnergyPJ - dram},
		}}, nil
	}
	m, err := machine.Get(l.Config.machineFor(tab.N))
	if err != nil {
		return Partial{}, err
	}
	// Recycle on every path: Reset is safe even after a run abandoned
	// mid-flight, so failed legs keep the pool warm.
	defer machine.Put(m)
	var out Partial
	if out.Result, err = l.Config.runOn(m, tab, p); err != nil {
		return Partial{}, err
	}
	if l.Counters {
		// A snapshot is a pure function of the single-threaded run, so
		// worker scheduling cannot leak into it.
		out.Counters = obs.Capture(m.Registry, m.Engine)
	}
	return out, nil
}

// Fold merges n partials in shard order, part(i) reading the i-th —
// read in place from the caller's own per-task slots, so neither layer
// keeps a second slice of partials: cycles as the critical path (the
// slowest shard), energy, verification, squash, group and counter
// totals summed. Fold never mutates the partials — serving reuses one
// (plan, shard) partial across requests — and returns a lone partial
// as it is, uncloned.
func Fold(n int, part func(i int) Partial) Partial {
	out := part(0)
	if n == 1 {
		return out
	}
	out.Groups = slices.Clone(out.Groups)
	out.Counters = out.Counters.Clone()
	e := &out.Energy
	for i := 1; i < n; i++ {
		p := part(i)
		out.Cycles = max(out.Cycles, p.Cycles)
		e.ActivationPJ += p.Energy.ActivationPJ
		e.ReadPJ += p.Energy.ReadPJ
		e.WritePJ += p.Energy.WritePJ
		e.RefreshPJ += p.Energy.RefreshPJ
		e.BackgroundPJ += p.Energy.BackgroundPJ
		e.LinkPJ += p.Energy.LinkPJ
		e.LogicPJ += p.Energy.LogicPJ
		out.Checked += p.Checked
		out.Squashed += p.Squashed
		out.SquashedDRAMBytes += p.SquashedDRAMBytes
		for g := range out.Groups {
			out.Groups[g].Add(p.Groups[g])
		}
		out.Counters.Add(p.Counters)
	}
	return out
}

// shardRows is the row count of the largest of the n shards db.Partition
// cuts a tuples-row table into: the first shards take the extra 64-row
// blocks.
func shardRows(tuples, n int) int {
	return (tuples + 64*n - 1) / (64 * n) * 64
}
