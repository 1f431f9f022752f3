// The fleet layer: R replica pools over one sharded table, each pool
// pinned to a backend family, with a router that picks the (replica,
// backend) pair jointly from the cost model's predicted critical path
// plus the replica's current virtual-time backlog — and, under
// overload, admission control that sheds low-patience classes first.
//
// Replicas hold the same data, so a (plan, shard) service time is
// identical on every pool that can run the plan; the fleet therefore
// shares the Cluster's executor pool, its memo of verified exact shard
// legs and its replay (replay.go), in which only the single-threaded
// virtual-time timeline knows about pools. The memo spans calls: a leg
// any load test or query of the fleet (or of its embedded Cluster) has
// verified is not simulated again. Reports stay byte-identical at any
// worker count.
package serve

import (
	"fmt"
	"sync"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// Fleet is a replicated serving fleet: the embedded Cluster's shards,
// replicated across len(pools) complete replicas, each pinned to one
// backend family. Its pools are fixed at NewFleet; its caches, the
// Cluster's and its per-plan estimates, fill as it serves. Safe for
// concurrent Query and LoadTest calls.
type Fleet struct {
	*Cluster
	pools []query.Arch

	// ests caches the sharded cost estimate per distinct plan — the
	// router's per-candidate input, a pure function of (shards, plan).
	estMu sync.Mutex
	ests  map[query.Plan]poolEstimate
}

type poolEstimate struct {
	est cost.Estimate
	sel float64
}

// NewFleet builds a fleet over tab cut into nShards shards, with one
// complete replica per entry of pools, pinned to that architecture.
// Pools must name concrete backends of the table — ArchAuto names no
// backend family to pin a replica to and is rejected.
func NewFleet(cfg sweep.Config, tab *db.Table, nShards int, pools []query.Arch) (*Fleet, error) {
	if len(pools) == 0 {
		return nil, fmt.Errorf("serve: a fleet needs at least one replica pool")
	}
	for i, a := range pools {
		if a == query.ArchAuto {
			return nil, fmt.Errorf("serve: pool %d: replica pools must pin a concrete backend, not auto", i)
		}
		if _, ok := query.BackendFor(a); !ok {
			return nil, fmt.Errorf("serve: pool %d: architecture %d is not a registered backend", i, a)
		}
	}
	c, err := New(cfg, tab, nShards)
	if err != nil {
		return nil, err
	}
	return &Fleet{
		Cluster: c,
		pools:   append([]query.Arch(nil), pools...),
		ests:    make(map[query.Plan]poolEstimate),
	}, nil
}

// Pools reports the replica pools' pinned architectures, in pool order.
func (f *Fleet) Pools() []query.Arch { return append([]query.Arch(nil), f.pools...) }

// Calibrate replaces the fleet's routing cost model (see
// Cluster.Calibrate) and additionally invalidates the cached sharded
// estimates the fleet router ranks candidates by.
func (f *Fleet) Calibrate(p cost.Params) {
	f.Cluster.Calibrate(p)
	f.estMu.Lock()
	f.ests = make(map[query.Plan]poolEstimate)
	f.estMu.Unlock()
}

// estimate returns the sharded estimate for one plan under cost-model
// snapshot pr, cached.
func (f *Fleet) estimate(p query.Plan, pr cost.Params) (cost.Estimate, float64, error) {
	f.estMu.Lock()
	e, ok := f.ests[p]
	f.estMu.Unlock()
	if ok {
		return e.est, e.sel, nil
	}
	est, sel, err := cost.EstimateSharded(pr, f.shards, p)
	if err != nil {
		return cost.Estimate{}, 0, err
	}
	f.estMu.Lock()
	f.ests[p] = poolEstimate{est: est, sel: sel}
	f.estMu.Unlock()
	return est, sel, nil
}

// candidatesFor expands one request into its routable (pool, plan)
// candidates, in pool order. An ArchAuto request is a candidate on
// every pool (each pool's pinned backend's best serving shape over the
// request's predicate); a fixed-architecture request only on pools
// pinned to that architecture. Pools whose plan the envelope rejects
// are skipped; an error is returned only when no pool survives. pr is
// the caller's cost-model snapshot.
func (f *Fleet) candidatesFor(req Request, pr cost.Params) ([]candidate, error) {
	maxRows := f.maxShardRows()
	var cands []candidate
	for pi, arch := range f.pools {
		p := req.Plan
		if p.Auto() {
			b, _ := query.BackendFor(arch)
			p = servingShape(b, req.Plan)
		} else if p.Arch != arch {
			continue
		}
		if p.ValidateFor(maxRows) != nil {
			continue
		}
		est, sel, err := f.estimate(p, pr)
		if err != nil {
			continue
		}
		cands = append(cands, candidate{pool: pi, plan: p, est: est, sel: sel})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("serve: no replica pool can serve %s", req.Plan)
	}
	return cands, nil
}

// Admit validates a request against the fleet: its class must be
// non-negative and at least one replica pool must be able to execute
// it.
func (f *Fleet) Admit(req Request) error {
	_, err := f.admit(req, f.costParams())
	return err
}

// admit is Admit returning the request's routable candidates under
// cost-model snapshot pr.
func (f *Fleet) admit(req Request, pr cost.Params) ([]candidate, error) {
	if err := checkClass(req); err != nil {
		return nil, err
	}
	return f.candidatesFor(req, pr)
}

// Query routes one request across the fleet's replica pools — on an
// idle fleet the queues are zero, so the pick is the predicted-fastest
// (replica, backend) pair — executes it on the shared shard engines,
// and returns the verified answer with the routing decision and pool
// pick attached. Safe for concurrent callers.
func (f *Fleet) Query(req Request, opt Options) (*Response, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	pr := f.costParams()
	cands, err := f.admit(req, pr)
	if err != nil {
		return nil, err
	}
	// Online adaptive state (EnableAdaptive): route under the lock so
	// concurrent queries see a consistent observation snapshot.
	f.adaptMu.Lock()
	rt := f.adapt
	d, err := rt.rankNext(cands)
	f.adaptMu.Unlock()
	if err != nil {
		return nil, err
	}
	chosen := cands[d.ChosenIndex]
	resp, err := f.run(Request{Plan: chosen.plan, Class: req.Class}, opt, pr)
	if err != nil {
		return nil, err
	}
	f.adaptMu.Lock()
	rt.observe(chosen.plan, chosen.sel, resp.Cycles)
	f.adaptMu.Unlock()
	resp.Routing = d
	resp.Pool = &PoolPick{
		Pool: chosen.pool, Arch: f.pools[chosen.pool].String(),
		EstCycles: chosen.est.Cycles,
	}
	return resp, nil
}

// LoadTest runs the load spec against the fleet: the one serving
// replay (see Cluster.LoadTest) with one pool per replica. Every
// distinct candidate plan's (plan, shard) service times are computed
// on the bounded executor pool, each exact one once per fleet
// (runPlanSet), and each plan's merged answer is
// verified against the unsharded reference evaluator. The serving
// timeline is then replayed single-threaded in virtual time — per
// arrival, the router ranks the request's (pool, plan) candidates by
// predicted critical path plus the candidate replica's current
// backlog; admission control (Shed) refuses requests whose class's
// patience even the least-loaded candidate exceeds; the pick dispatches
// FIFO onto the chosen replica's shard queues, under the spec's faults
// and recovery policy when set. Reports are byte-identical at any
// worker count.
func (f *Fleet) LoadTest(spec LoadSpec, opt Options) (*Report, error) {
	pr := f.costParams()
	return f.loadTest(spec, opt, pr, f.pools, func(req Request) ([]candidate, *cost.Decision, error) {
		cs, err := f.candidatesFor(req, pr)
		return cs, nil, err
	})
}
