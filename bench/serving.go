package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/fault"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/serve"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// Serving constants, fixed when the workload was defined. The fleet is
// two replica pools (HIPE, x86) of four shards over a date-clustered
// table; requests are auto-routed, every fourth a Q01 aggregation, in
// two admission classes.
const (
	serveShards  = 4
	serveWorkers = 2
	noiseDays    = 10
	// rtSLO bounds the "rt" class's latency. An idle fleet's Q01
	// critical path is ~50k cycles, so at the low rate nearly every
	// request attains it.
	rtSLO = 64_000
	// Batch requests tolerate four times the latency, and are shed when
	// the least-loaded candidate's backlog exceeds their patience; rt
	// requests are never shed.
	batchSLO      = 4 * rtSLO
	batchPatience = 2 * rtSLO
)

// The open-loop legs' mean interarrival gaps, in simulated cycles: at
// these rates the HIPE pool is about a third busy, near saturation,
// and past it.
var openLegs = []struct {
	name string
	gap  uint64
}{{"low", 40_000}, {"knee", 10_000}, {"over", 5_000}}

var serveClasses = []serve.ClassSpec{
	{Name: "batch", SLOCycles: batchSLO, PatienceCycles: batchPatience, TimeoutCycles: 4 * batchSLO},
	{Name: "rt", SLOCycles: rtSLO, TimeoutCycles: 4 * batchSLO},
}

var servePools = []query.Arch{query.HIPE, query.X86}

// rpmc converts a mean gap to an offered rate in requests per million
// cycles.
func rpmc(gap uint64) float64 { return 1e6 / float64(gap) }

// fleetSetup builds the serving table and fleet: what both serving
// workloads set up.
func fleetSetup(sc scale, seed uint64, n int) (*serve.Fleet, []serve.Request, error) {
	tab := db.GenerateClustered(sc.tuples, seed, noiseDays)
	f, err := serve.NewFleet(sweep.Config{Tuples: sc.tuples, Seed: seed}, tab, serveShards, servePools)
	if err != nil {
		return nil, nil, err
	}
	reqs, err := serve.StreamSpec{N: n, Seed: seed, Archs: []query.Arch{query.ArchAuto},
		Q1Every: 4, Classes: len(serveClasses)}.Requests()
	return f, reqs, err
}

// openSpec is an open-loop leg with admission classes and shedding.
func openSpec(reqs []serve.Request, gap, seed uint64) serve.LoadSpec {
	spec := serve.OpenLoop(reqs, gap, 0, seed)
	spec.Classes = serveClasses
	spec.Shed = true
	return spec
}

func reportDigest(r *serve.Report) (string, error) {
	var b bytes.Buffer
	if err := r.WriteCSV(&b); err != nil {
		return "", err
	}
	return digest(b.Bytes()), nil
}

// serveFleet is the serve-fleet workload: five legs per pass.
type serveFleet struct {
	sc    scale
	seed  uint64
	fleet *serve.Fleet
	reqs  []serve.Request // classed stream, for the fleet legs
	plain []serve.Request // the same requests in one class, for the cluster leg
	last  []*serve.Report // the last untraced pass's reports, in leg order
}

var serveLegs = []string{"low", "knee", "over", "fault", "cluster"}

func setupServeFleet(sc scale, seed uint64) (instance, error) {
	f, reqs, err := fleetSetup(sc, seed, sc.requests)
	if err != nil {
		return nil, err
	}
	plain := make([]serve.Request, len(reqs))
	for i, r := range reqs {
		plain[i] = serve.Request{Plan: r.Plan}
	}
	return &serveFleet{sc: sc, seed: seed, fleet: f, reqs: reqs, plain: plain}, nil
}

func (s *serveFleet) workers() int { return serveWorkers }

// runLeg runs one leg under the given execution mode.
func (s *serveFleet) runLeg(leg int, exec sweep.ExecMode) (*serve.Report, error) {
	opt := serve.Options{Workers: serveWorkers, Exec: exec}
	switch serveLegs[leg] {
	case "fault":
		// The knee rate with a mid-run crash of the HIPE pool, straggler
		// episodes and stalls, recovered by retries and failover.
		spec := openSpec(s.reqs, openLegs[1].gap, s.seed+1)
		span := openLegs[1].gap * uint64(len(s.reqs))
		spec.Faults = &fault.Spec{Seed: s.seed,
			StraggleEvery: span / 4, StraggleFor: span / 40, StraggleFactor: 3,
			StallEvery: span / 8, StallFor: 4_000,
			Crashes: []fault.Crash{{Pool: 0, At: span / 3, Down: span / 10}}}
		spec.Recovery = &serve.RecoverySpec{MaxRetries: 3, BackoffCycles: 4_000,
			BackoffCapCycles: 32_000, Failover: true}
		return s.fleet.LoadTest(spec, opt)
	case "cluster":
		return s.fleet.Cluster.LoadTest(serve.ClosedLoop(s.plain, 2), opt)
	default:
		return s.fleet.LoadTest(openSpec(s.reqs, openLegs[leg].gap, s.seed+uint64(leg)), opt)
	}
}

func (s *serveFleet) pass() (passResult, error) {
	res := passResult{outcome: map[string]float64{}}
	s.last = make([]*serve.Report, len(serveLegs))
	last := time.Now()
	for leg, name := range serveLegs {
		r, err := s.runLeg(leg, sweep.ExecExact)
		if err != nil {
			return passResult{}, fmt.Errorf("leg %s: %w", name, err)
		}
		d, err := reportDigest(r)
		if err != nil {
			return passResult{}, err
		}
		now := time.Now()
		res.lat = append(res.lat, now.Sub(last))
		last = now
		res.ops = append(res.ops, op{name: "leg/" + name, out: "csv_sha256=" + d})
		s.last[leg] = r
	}
	s.outcome(res.outcome)
	return res, nil
}

// outcome derives the simulated serving metrics from the open legs.
func (s *serveFleet) outcome(m map[string]float64) {
	var attained, offered int
	maxOK := 0.0
	for leg, l := range openLegs {
		r := s.last[leg]
		var lastArrival uint64
		for _, tr := range r.Requests {
			lastArrival = max(lastArrival, tr.Arrival)
		}
		for _, c := range r.Classes {
			attained += c.Attained
			offered += c.Offered
			// A rate is sustainable when rt's p99 meets its SLO and the
			// queues drain within one SLO of the last arrival.
			if c.Name == "rt" && c.LatencyP99 <= rtSLO && r.MakespanCycles-lastArrival <= rtSLO {
				maxOK = math.Max(maxOK, rpmc(l.gap))
			}
		}
		switch l.name {
		case "knee":
			m["sim_p50_cycles.knee"] = float64(r.LatencyP50)
			m["sim_p99_cycles.knee"] = float64(r.LatencyP99)
			m["serve.pool_util"] = r.Pools[0].Utilisation
		case "over":
			m["sim_p99_cycles.over"] = float64(r.LatencyP99)
		}
	}
	m["slo_attain_pct"] = 100 * float64(attained) / float64(offered)
	m["max_ok_rate_rpmc"] = maxOK
	for _, r := range s.last {
		m["serve.shed"] += float64(r.Shed)
		m["serve.degraded"] += float64(r.Degraded)
		if r.Faults != nil {
			m["serve.retries"] += float64(r.Faults.Retries)
		}
	}
}

// candidates lists, in first-use order, every distinct serving shape
// the given architectures have for the requests' predicates: the plans
// a fleet leg simulates when archs are its pools.
func candidates(reqs []serve.Request, archs []query.Arch, maxRows int) []query.Plan {
	seen := map[query.Plan]bool{}
	var out []query.Plan
	for _, r := range reqs {
		for _, a := range archs {
			p := serve.DefaultPlan(a, r.Plan.Q)
			if r.Plan.Kind == query.Q1Agg {
				p = serve.DefaultQ1Plan(a, r.Plan.Q1)
			}
			if !seen[p] && p.ValidateFor(maxRows) == nil {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// tracedSetup rebuilds the serving table and shards under spans.
func tracedSetup(tr *tracer, sc scale, seed uint64) (shards []*db.Table, err error) {
	tr.do("setup", func() {
		var tab *db.Table
		tr.do("db.generate", func() { tab = db.GenerateClustered(sc.tuples, seed, noiseDays) })
		tr.do("db.partition", func() { shards, err = db.Partition(tab, serveShards) })
	})
	return shards, err
}

// tracedRoutes prices what the router prices: every distinct candidate
// plan over the shards, and for the cluster leg one pick per predicate.
func tracedRoutes(tr *tracer, pr cost.Params, shards []*db.Table, plans []query.Plan, picks [][]query.Plan) ([]query.Plan, error) {
	var err error
	for _, p := range plans {
		tr.do("cost.pick", func() { _, _, err = cost.EstimateSharded(pr, shards, p) })
		if err != nil {
			return nil, err
		}
	}
	var chosen []query.Plan
	for _, cands := range picks {
		var d *cost.Decision
		tr.do("cost.pick", func() { d, err = cost.PickSharded(pr, shards, cands) })
		if err != nil {
			return nil, err
		}
		chosen = append(chosen, d.Chosen)
	}
	return chosen, nil
}

// predicatePicks groups every backend's serving shape by predicate —
// the candidate sets the cluster leg routes among.
func predicatePicks(reqs []serve.Request, maxRows int) [][]query.Plan {
	var archs []query.Arch
	for _, b := range query.Backends() {
		archs = append(archs, b.Arch())
	}
	seen := map[query.Plan]bool{}
	var out [][]query.Plan
	for _, r := range reqs {
		if seen[r.Plan] {
			continue
		}
		seen[r.Plan] = true
		out = append(out, candidates([]serve.Request{r}, archs, maxRows))
	}
	return out
}

// traced prices what the routers price, then replays each leg
// single-threaded: every distinct (plan, shard) simulation on one
// reused machine, then the leg's routing, admission and virtual-time
// replay alone (the same leg in estimate mode). Each request's service
// time in the last untraced pass must equal its plan's slowest traced
// shard.
func (s *serveFleet) traced(tr *tracer, ctr *obs.Counters) (tracedResult, error) {
	shards, err := tracedSetup(tr, s.sc, s.seed)
	if err != nil {
		return tracedResult{}, err
	}
	mc := machine.Default()
	mc.ImageBytes = db.ImageBytesFor(shards[0].N)
	r := &cellRunner{mc: mc, em: energy.Default()}
	pr := cost.ParamsFor(mc, r.em)
	// The fleet and the cluster cache these routing estimates after
	// their first use, so a pass prices them once.
	fleetPlans := candidates(s.reqs, servePools, shards[0].N)
	var clusterPlans []query.Plan
	tr.opSpan("route", func() {
		clusterPlans, err = tracedRoutes(tr, pr, shards, fleetPlans, predicatePicks(s.plain, shards[0].N))
	})
	if err != nil {
		return tracedResult{}, err
	}
	res := tracedResult{outcome: map[string]float64{}}
	for leg, name := range serveLegs {
		tr.opSpan("sim/"+name, func() {
			plans := fleetPlans
			if name == "cluster" {
				plans = clusterPlans
			}
			service := map[query.Plan]uint64{}
			for _, p := range plans {
				for _, shard := range shards {
					var out sweep.Result
					if out, err = r.exec(tr, ctr, shard, p, false); err != nil {
						return
					}
					service[p] = max(service[p], out.Cycles)
					res.outcome["serve.sims"]++
				}
			}
			for _, rt := range s.last[leg].Requests {
				res.checked++
				if rt.Service != service[rt.Plan] {
					res.mismatches++
				}
			}
			tr.do("serve.replay", func() { _, err = s.runLeg(leg, sweep.ExecEstimate) })
		})
		if err != nil {
			return tracedResult{}, fmt.Errorf("leg %s: %w", name, err)
		}
	}
	return res, nil
}

// planEstimate is the plan-estimate workload: a wide grid priced in
// estimate mode plus an estimate-mode fleet load test.
type planEstimate struct {
	sc     scale
	seed   uint64
	cfg    sweep.Config
	cells  []sweep.Cell
	groups []string // per cell, the op (table and predicate) it belongs to
	fleet  *serve.Fleet
	reqs   []serve.Request
}

// planGrid is the priced grid: every architecture, strategy, op size
// and unroll depth the backends accept, fused and aggregate variants,
// four Q06 and two Q01 predicates, uniform and clustered tables. It
// contains every sweep-mixed cell.
func planGrid(sc scale, seed uint64) sweep.Grid {
	g := sweepMixedGrid(sc, seed)
	g.Strategies = []query.Strategy{query.TupleAtATime, query.ColumnAtATime}
	g.OpSizes = []uint32{16, 32, 64, 128, 256}
	g.Unrolls = []int{1, 2, 4, 8, 16, 32}
	g.Fused = []bool{false, true}
	g.Aggregate = []bool{false, true}
	q := db.DefaultQ06()
	q.QtyHi = 10
	g.Queries = append(g.Queries, q)
	return g
}

func setupPlanEstimate(sc scale, seed uint64) (instance, error) {
	list, err := planGrid(sc, seed).Expand()
	if err != nil {
		return nil, err
	}
	p := &planEstimate{sc: sc, seed: seed, cfg: sweep.Config{Tuples: sc.tuples, Seed: seed}, cells: list}
	for _, c := range list {
		p.groups = append(p.groups, queryName(c))
	}
	db.GenerateMemo(sc.tuples, seed)
	db.GenerateClusteredMemo(sc.tuples, seed, noiseDays)
	p.fleet, p.reqs, err = fleetSetup(sc, seed, 2*sc.requests)
	return p, err
}

func (p *planEstimate) workers() int { return 1 }

// fleetLeg is the estimate-mode load test: the knee rate.
func (p *planEstimate) fleetLeg() (string, error) {
	r, err := p.fleet.LoadTest(openSpec(p.reqs, openLegs[1].gap, p.seed),
		serve.Options{Workers: serveWorkers, Exec: sweep.ExecEstimate})
	if err != nil {
		return "", err
	}
	d, err := reportDigest(r)
	return "csv_sha256=" + d, err
}

// groupOps folds per-cell outputs into one op per table and predicate.
func groupOps(groups, outs []string) []op {
	var ops []op
	var cur []string
	for i, g := range groups {
		cur = append(cur, outs[i])
		if i+1 == len(groups) || groups[i+1] != g {
			ops = append(ops, op{name: g, out: joinOuts(cur)})
			cur = nil
		}
	}
	return ops
}

// joinOuts folds a group's cell outputs into one digest.
func joinOuts(outs []string) string {
	return digest([]byte(strings.Join(outs, "\n")))
}

// estimateOut renders a priced cell's outputs.
func estimateOut(cycles uint64, dramPJ, sel float64) string {
	return fmt.Sprintf("cycles=%d dram_pj=%s sel=%s", cycles, fmtFloat(dramPJ), fmtFloat(sel))
}

func (p *planEstimate) pass() (passResult, error) {
	var lat []time.Duration
	last := time.Now()
	rs, err := sweep.RunCells(p.cfg, p.cells, sweep.Options{Workers: 1, Exec: sweep.ExecEstimate,
		OnCell: func(int, int, sweep.CellResult) {
			now := time.Now()
			lat = append(lat, now.Sub(last))
			last = now
		}})
	if err != nil {
		return passResult{}, err
	}
	outs := make([]string, len(rs.Cells))
	for i, cr := range rs.Cells {
		outs[i] = estimateOut(cr.Result.Cycles, cr.Result.Energy.DRAMPJ(), cr.Selectivity)
	}
	res := passResult{ops: groupOps(p.groups, outs), lat: lat}
	out, err := p.fleetLeg()
	if err != nil {
		return passResult{}, err
	}
	res.ops = append(res.ops, op{name: "fleet", out: out})
	res.lat = append(res.lat, time.Since(last))
	return res, nil
}

// traced prices every cell with direct cost-model calls, then replays
// the fleet leg after pricing what its router prices.
func (p *planEstimate) traced(tr *tracer, _ *obs.Counters) (tracedResult, error) {
	tabs := map[bool]*db.Table{}
	var shards []*db.Table
	var err error
	tr.do("setup", func() {
		tr.do("db.generate", func() { tabs[false] = db.Generate(p.sc.tuples, p.seed) })
		tr.do("db.generate", func() { tabs[true] = db.GenerateClustered(p.sc.tuples, p.seed, noiseDays) })
		tr.do("db.partition", func() { shards, err = db.Partition(tabs[true], serveShards) })
	})
	if err != nil {
		return tracedResult{}, err
	}
	mc := machine.Default()
	pr := cost.ParamsFor(mc, energy.Default())
	outs := make([]string, len(p.cells))
	var ops []op
	start := 0
	for i, c := range p.cells {
		if i+1 < len(p.cells) && p.groups[i+1] == p.groups[i] {
			continue
		}
		group := p.cells[start : i+1]
		tr.opSpan(p.groups[i], func() {
			tab := tabs[c.Clustered]
			var sel float64
			tr.do("db.selectivity", func() { sel = selectivity(tab, c.Plan) })
			for j, gc := range group {
				var est cost.Estimate
				tr.do("cost.estimate", func() { est, err = cost.EstimatePlan(pr, gc.Plan, cost.ProfileFor(tab, gc.Plan)) })
				if err != nil {
					return
				}
				// Estimate mode reports the model's DRAM read energy.
				outs[start+j] = estimateOut(uint64(math.Round(est.Cycles)), est.DRAMBytes*8*pr.DRAMReadBitPJ, sel)
			}
		})
		if err != nil {
			return tracedResult{}, fmt.Errorf("%s: %w", p.groups[i], err)
		}
		ops = append(ops, op{name: p.groups[i], out: joinOuts(outs[start : i+1])})
		start = i + 1
	}
	var fleetOut string
	tr.opSpan("fleet", func() {
		if _, err = tracedRoutes(tr, pr, shards, candidates(p.reqs, servePools, shards[0].N), nil); err != nil {
			return
		}
		tr.do("serve.replay", func() { fleetOut, err = p.fleetLeg() })
	})
	if err != nil {
		return tracedResult{}, fmt.Errorf("fleet: %w", err)
	}
	return tracedResult{ops: append(ops, op{name: "fleet", out: fleetOut})}, nil
}
