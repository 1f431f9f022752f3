// Package serve is the query-serving layer of the reproduction: it
// treats the simulated HMC machines as a fleet. A large lineitem table
// is horizontally partitioned across N shards, each shard backed by its
// own simulated machine instance, and concurrent Q06-family requests —
// arbitrary predicates, any of the four architectures, optionally
// HIPE's in-memory aggregation — scatter across the shards and gather
// into exact whole-table answers verified against the db reference
// evaluator.
//
// The layer sits above internal/sweep in the stack: sweep answers "how
// fast is one configuration", serve answers "what throughput and tail
// latency does a fleet of such machines deliver under load". Its load
// generators and the shard-task stage (runPlanSet, which fans out on
// the sweep engine's worker pool, sweep.ForEach) live in traffic.go,
// the virtual-time replay that turns service times into latencies in
// replay.go, and its exporters in report.go.
//
// Determinism: each shard simulation is single-threaded and
// bit-reproducible, shard-task results are aggregated by (request,
// shard) index, and the serving timeline — arrivals, per-shard FIFO
// queueing, completions — is computed in virtual simulated time from
// those indexed results. Executor workers only parallelise the
// simulations themselves, so every answer, latency sample and exported
// report is byte-identical at any worker count.
package serve

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// NominalHz is the Table I core clock (2 GHz), used to convert between
// simulated cycles and wall-clock-style figures (QPS, microseconds) in
// reports and CLI flags. Simulated results are always kept in cycles;
// the conversion is presentation only.
const NominalHz = 2e9

// Request is one admitted query: a full plan (architecture, strategy,
// op size, unroll, fused/aggregate variants and the Q06 predicate)
// executed over every shard of the cluster. A request whose plan
// carries query.ArchAuto names no backend: the cluster's adaptive
// planner resolves it at admission to the predicted-fastest backend's
// best serving shape, given the predicate's selectivity profile on the
// served table (internal/cost).
type Request struct {
	Plan query.Plan
	// Class is the request's admission class: an index into the load
	// spec's declared ClassSpec table (0, the zero value, when classes
	// are unused). Under fleet admission control, overload sheds
	// lower-class work first and SLO attainment is reported per class.
	Class int `json:",omitempty"`
}

// ArchAuto re-exports the planner sentinel for serving callers.
const ArchAuto = query.ArchAuto

// DefaultPlan returns the per-architecture best configuration (the
// Figure 3d shapes) over predicate q — the natural plan for a serving
// request that only picks an architecture. ArchAuto returns the
// unresolved auto request plan; the cluster routes it at admission.
func DefaultPlan(arch query.Arch, q db.Q06) query.Plan {
	switch arch {
	case query.ArchAuto:
		return query.Plan{Arch: query.ArchAuto, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q}
	case query.X86:
		return query.Plan{Arch: arch, Strategy: query.ColumnAtATime, OpSize: 64, Unroll: 8, Q: q}
	case query.HIVE:
		return query.Plan{Arch: arch, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Fused: true, Q: q}
	default: // HMC, HIPE
		return query.Plan{Arch: arch, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q}
	}
}

// DefaultQ1Plan returns the per-architecture best configuration for the
// Q01 aggregation workload: the column-at-a-time shapes of DefaultPlan
// with the query description swapped (the fused variant is a pure-Q06
// plan, so HIVE serves Q01 unfused).
func DefaultQ1Plan(arch query.Arch, q db.Q01) query.Plan {
	p := DefaultPlan(arch, db.Q06{})
	p.Fused = false
	p.Kind = query.Q1Agg
	p.Q = db.Q06{}
	p.Q1 = q
	return p
}

// servingShape is backend b's best serving plan for an ArchAuto request
// plan: its DefaultPlan or DefaultQ1Plan shape over the request's
// predicate, with in-memory aggregation kept only where b supports it.
func servingShape(b query.Backend, req query.Plan) query.Plan {
	if req.Kind == query.Q1Agg {
		return DefaultQ1Plan(b.Arch(), req.Q1)
	}
	p := DefaultPlan(b.Arch(), req.Q)
	p.Aggregate = req.Aggregate && b.Caps().Aggregate
	return p
}

// ShardPartial is one shard's contribution to a request: the simulated
// service time plus the partials that merge into the whole-table
// answer. Matches is the cardinality of the shard's result bitmask,
// which the shard run verifies against the shard reference evaluator
// before the partial is released.
type ShardPartial struct {
	Shard   int
	Cycles  uint64
	Matches int
	Revenue int64
	// Groups holds the shard's per-group aggregates for Q01 requests,
	// in db.GroupID order (nil for selection requests). Contiguous
	// shards tile the table, so group partials recompose by index.
	Groups []db.GroupAgg `json:",omitempty"`
	// Counters is the shard run's machine-counter snapshot, captured
	// only when Options.Counters is set (nil — and JSON-omitted —
	// otherwise, so counter-off exports are unchanged).
	Counters *obs.Counters `json:",omitempty"`
}

// Response is a merged, verified whole-table answer.
type Response struct {
	Request Request
	// Matches is the merged match count (sum of shard bitmask
	// cardinalities), equal to the unsharded reference evaluator's.
	Matches int
	// Revenue is the merged sum(l_extendedprice*l_discount) over
	// matches. For Aggregate plans each addend was computed by the HIPE
	// engine's predicated Mul/Add lanes and checked in-shard.
	Revenue int64
	// Groups is the merged per-group aggregate table of a Q01 request
	// (nil for selection requests): shard partials summed group-wise
	// and verified against the unsharded reference evaluator.
	Groups []db.GroupAgg `json:",omitempty"`
	// Cycles is the request's service time on an idle fleet: the
	// critical path, i.e. the slowest shard's simulation.
	Cycles uint64
	// WorkCycles is the total simulated work across all shards.
	WorkCycles uint64
	// Shards are the per-shard partials, in shard order.
	Shards []ShardPartial
	// Routing records the adaptive planner's decision for an ArchAuto
	// request — the profiled selectivity, every candidate backend's
	// cost estimate, and the chosen plan (which Request now carries).
	// Nil for fixed-architecture requests, so fixed-arch exports are
	// unchanged.
	Routing *cost.Decision `json:",omitempty"`
	// Pool records the fleet router's (replica, backend) pick for
	// requests served through a Fleet. Nil on single-replica clusters.
	Pool *PoolPick `json:",omitempty"`
	// Counters is the request's machine-counter snapshot — the shard
	// snapshots summed — when Options.Counters is set; nil (and
	// JSON-omitted) otherwise.
	Counters *obs.Counters `json:",omitempty"`
	// ExecMode is "estimate" when the response's shard cycles came from
	// the analytic cost model rather than machine simulation (answers
	// are exact either way; only timing is approximate). Empty — and
	// JSON-omitted — for exact responses, so exact exports are
	// byte-identical to their pre-mode form.
	ExecMode string `json:",omitempty"`
}

// Options tune cluster execution.
type Options struct {
	// Workers bounds the executor pool that runs shard simulations;
	// <= 0 means runtime.GOMAXPROCS(0). The worker count never changes
	// answers or reports, only wall-clock time.
	Workers int
	// OnTask, when non-nil, is called after each finished shard task
	// with the number completed so far and the total. Calls are
	// serialised but arrive in completion order — progress only.
	OnTask func(completed, total int)
	// Counters enables machine-counter capture: each shard run
	// snapshots its machine's counter registry (plus the event engine's
	// scheduler accounting) into the shard partial before the machine is
	// recycled, and the snapshots roll up into responses and reports.
	// Off by default — when off, no capture code runs and exports are
	// byte-identical to their pre-observability form.
	Counters bool
	// Trace enables the virtual-time request tracer in load tests:
	// per-request spans (arrival, routing/shed decisions, per-shard
	// machine replay, merge) recorded in simulated cycles during the
	// single-threaded timeline replay, exported via the report's
	// WriteChromeTrace/WriteSpanCSV. Off by default and free when off.
	Trace bool
	// Exec selects the execution mode. ExecExact (the zero value) runs
	// every shard task as a full machine simulation; ExecEstimate prices
	// shard service times with the analytic cost model — no machines are
	// built — while answers still come from the shard reference
	// evaluators, so merges verify exactly and only timing is
	// approximate. Estimate responses and reports carry an "estimate"
	// mode marker; exact exports are byte-identical to runs made before
	// this knob existed. See internal/sweep's ExecMode and
	// docs/PERFORMANCE.md for the error contract.
	Exec sweep.ExecMode
}

// validate rejects option combinations the cluster refuses to serve:
// estimate mode builds no machines, so it can produce neither machine
// counters nor machine-replay traces.
func (o Options) validate() error {
	switch o.Exec {
	case sweep.ExecExact:
	case sweep.ExecEstimate:
		if o.Counters {
			return fmt.Errorf("serve: estimate mode cannot produce machine counters (µop-level counters need exact simulation)")
		}
		if o.Trace {
			return fmt.Errorf("serve: estimate mode cannot produce machine-replay traces (spans need exact simulation)")
		}
	default:
		return fmt.Errorf("serve: unknown exec mode %d", int(o.Exec))
	}
	return nil
}

// EffectiveWorkers resolves the executor-pool size these options
// produce.
func (o Options) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Cluster is a sharded serving fleet: one table cut into contiguous
// shards, each scanned by its own simulated machine. A Cluster is
// immutable after New and safe for concurrent Query calls.
type Cluster struct {
	mc     machine.Config
	whole  *db.Table
	shards []*db.Table

	// params is the adaptive planner's cost model, derived from the
	// cluster's machine and energy configuration at New.
	params cost.Params

	mu    sync.Mutex
	refs  map[db.Q06]*db.ReferenceResult
	refs1 map[db.Q01]*db.Q1Result
	// routes caches routing decisions per distinct (kind, predicate):
	// profiling the table is O(rows), so repeated predicates — the
	// common case in serving streams — route from the cache. Decisions
	// are pure functions of (table, predicate, candidates), hence
	// deterministic at any worker count.
	routes map[routeKey]*cost.Decision

	// mpool recycles simulated machines across shard replays: a Reset
	// machine is bit-identical to a fresh one, so reuse never changes
	// answers or timelines — it only stops the fleet from rebuilding
	// (and re-allocating) the world once per shard task.
	mpool *machine.Pool

	// adaptMu guards the online feedback-routing state used by the
	// concurrent Query paths (EnableAdaptive). Load-test replays never
	// touch it — they build per-run state from LoadSpec.Adaptive so a
	// load test stays a pure function of its inputs.
	adaptMu  sync.Mutex
	adapt    *cost.Adaptive
	adaptSeq int
}

// New partitions tab into nShards contiguous shards (each a multiple of
// 64 rows, see db.Partition) and returns the serving cluster. cfg
// contributes the machine model; when cfg.Machine is nil the Table I
// machine is used with its backing image sized to the shard footprint,
// which changes no addresses or timing — only allocation cost per
// simulated instance.
func New(cfg sweep.Config, tab *db.Table, nShards int) (*Cluster, error) {
	shards, err := db.Partition(tab, nShards)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	mc := machine.Default()
	if cfg.Machine != nil {
		mc = *cfg.Machine
	} else {
		mc.ImageBytes = shardImageBytes(shards[0].N)
	}
	em := energy.Default()
	if cfg.Energy != nil {
		em = *cfg.Energy
	}
	return &Cluster{
		mc:     mc,
		whole:  tab,
		shards: shards,
		params: cost.ParamsFor(mc, em),
		refs:   make(map[db.Q06]*db.ReferenceResult),
		refs1:  make(map[db.Q01]*db.Q1Result),
		routes: make(map[routeKey]*cost.Decision),
		mpool:  machine.NewPool(mc),
	}, nil
}

// EnableAdaptive turns feedback-driven routing on for the online Query
// paths: subsequent ArchAuto resolutions (and Fleet.Query routes) blend
// each candidate's analytic prior with the observed-cycles EWMA of its
// (kind, backend, selectivity-bucket) cell, completed queries feed
// their observed service cycles back in, and the deterministic
// exploration floor keeps sampling the candidates the blend would
// starve. Load tests do not read this state — they take a per-run
// cost.AdaptiveConfig on the LoadSpec instead, so a load test stays a
// pure function of (spec, options).
func (c *Cluster) EnableAdaptive(cfg cost.AdaptiveConfig) error {
	a, err := cost.NewAdaptive(cfg)
	if err != nil {
		return err
	}
	c.adaptMu.Lock()
	c.adapt = a
	c.adaptSeq = 0
	c.adaptMu.Unlock()
	return nil
}

// Calibrate replaces the routing planner's cost model and drops every
// cached routing decision. Answers and exact-mode service times are
// untouched — the simulated machines keep their real timing — so a
// drifted calibration changes only which backend the planner predicts
// fastest. This is the hook mis-calibration experiments and the
// adaptive-routing benchmarks use to pull the analytic prior away from
// the served machine. Estimate-mode runs price service times from the
// same model and would inherit the drift.
func (c *Cluster) Calibrate(p cost.Params) {
	c.mu.Lock()
	c.params = p
	c.routes = make(map[routeKey]*cost.Decision)
	c.mu.Unlock()
}

// routeKey identifies one distinct routable query.
type routeKey struct {
	kind query.QueryKind
	q    db.Q06
	q1   db.Q01
	agg  bool
}

// shardImageBytes sizes a machine image for an n-row shard (see
// db.ImageBytesFor).
func shardImageBytes(n int) uint64 { return db.ImageBytesFor(n) }

// Shards reports the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// ShardRows reports each shard's row count, in shard order.
func (c *Cluster) ShardRows() []int {
	rows := make([]int, len(c.shards))
	for i, s := range c.shards {
		rows[i] = s.N
	}
	return rows
}

// Rows reports the whole table's row count.
func (c *Cluster) Rows() int { return c.whole.N }

// Admit validates a request against the cluster: the plan must be
// inside the evaluated envelope — including the table-dependent
// bounds, checked against the largest shard — and executable on every
// shard. ArchAuto requests are validated through their resolution.
func (c *Cluster) Admit(req Request) error {
	if err := checkClass(req); err != nil {
		return err
	}
	if req.Plan.Auto() {
		_, _, err := c.resolve(req)
		return err
	}
	if err := req.Plan.ValidateFor(c.maxShardRows()); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

func (c *Cluster) maxShardRows() int {
	maxRows := 0
	for _, s := range c.shards {
		if s.N > maxRows {
			maxRows = s.N
		}
	}
	return maxRows
}

// resolve routes an ArchAuto request to the predicted-fastest backend:
// the candidates are every registered backend's best serving shape over
// the request's predicate, trimmed to the plans every shard can
// execute, ranked by the cost model against the served table's
// selectivity profile. Fixed-architecture requests pass through
// untouched. Decisions are cached per distinct predicate and are pure
// functions of the cluster's table, so routing is deterministic and
// auditable (the decision lands in Response.Routing and the report's
// routing columns).
func (c *Cluster) resolve(req Request) (Request, *cost.Decision, error) {
	if !req.Plan.Auto() {
		return req, nil, nil
	}
	key := routeKey{kind: req.Plan.Kind, q: req.Plan.Q, q1: req.Plan.Q1, agg: req.Plan.Aggregate}
	c.mu.Lock()
	d, ok := c.routes[key]
	c.mu.Unlock()
	if !ok {
		maxRows := c.maxShardRows()
		var candidates []query.Plan
		for _, b := range query.Backends() {
			if p := servingShape(b, req.Plan); p.ValidateFor(maxRows) == nil {
				candidates = append(candidates, p)
			}
		}
		var err error
		d, err = cost.PickSharded(c.params, c.shards, candidates)
		if err != nil {
			return req, nil, fmt.Errorf("serve: routing %s: %w", req.Plan, err)
		}
		c.mu.Lock()
		c.routes[key] = d
		c.mu.Unlock()
	}
	// With online adaptive routing enabled, the cached static decision
	// only supplies the candidate set and analytic priors; the pick
	// itself is re-made against the current observation state, so it can
	// evolve as completed queries feed cycles back in. Re-ranking builds a
	// fresh decision (the cached one stays untouched) with zero queue
	// penalties: a cluster has no replica backlog to weigh.
	c.adaptMu.Lock()
	if c.adapt != nil {
		cands := make([]candidate, len(d.Estimates))
		for i, e := range d.Estimates {
			cands[i] = candidate{plan: e.Plan, est: e, sel: d.Selectivity}
		}
		if nd, err := rank(c.adapt, c.adaptSeq, cands, make([]float64, len(cands)), nil); err == nil {
			d = nd
		}
		c.adaptSeq++
	}
	c.adaptMu.Unlock()
	req.Plan = d.Chosen
	return req, d, nil
}

// reference returns the whole-table oracle for predicate q, computed
// once per distinct predicate.
func (c *Cluster) reference(q db.Q06) *db.ReferenceResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.refs[q]; ok {
		return r
	}
	r := db.Reference(c.whole, q)
	c.refs[q] = r
	return r
}

// referenceQ1 returns the whole-table aggregation oracle for predicate
// q, computed once per distinct predicate.
func (c *Cluster) referenceQ1(q db.Q01) *db.Q1Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.refs1[q]; ok {
		return r
	}
	r := db.ReferenceQ1(c.whole, q)
	c.refs1[q] = r
	return r
}

// runShard produces req's plan's shard-s partial under opt's execution
// mode. Exact mode runs the plan on a pooled machine instance, verifies
// the engine-computed result against the shard reference, and — when
// opt.Counters is set — snapshots the machine's counter registry into
// the partial before the machine is recycled (Reset clears the
// registry). Estimate mode prices the shard analytically instead; see
// estimateShard.
func (c *Cluster) runShard(s int, p query.Plan, opt Options) (ShardPartial, error) {
	if opt.Exec == sweep.ExecEstimate {
		return c.estimateShard(s, p)
	}
	m, err := c.mpool.Get()
	if err != nil {
		return ShardPartial{}, err
	}
	// Recycle on every path: Reset is proven safe even after a run
	// abandoned mid-flight, so failed shard tasks keep the pool warm.
	defer c.mpool.Put(m)
	w, err := query.Prepare(m, c.shards[s], p)
	if err != nil {
		return ShardPartial{}, err
	}
	cycles := uint64(m.Run(w.Stream()))
	if err := w.Verify(); err != nil {
		return ShardPartial{}, err
	}
	var ctrs *obs.Counters
	if opt.Counters {
		ctrs = obs.Capture(m.Registry, m.Engine)
	}
	// Verify passed: the engine's bitmask (and, for aggregation plans,
	// its in-memory accumulators) equals the shard reference, so the
	// reference values ARE the engine-computed partials.
	if w.Ref1 != nil {
		return ShardPartial{
			Shard:    s,
			Cycles:   cycles,
			Matches:  w.Ref1.Matches,
			Revenue:  w.Ref1.Revenue(),
			Groups:   w.GroupResults(),
			Counters: ctrs,
		}, nil
	}
	return ShardPartial{
		Shard:    s,
		Cycles:   cycles,
		Matches:  w.Ref.Matches,
		Revenue:  w.Ref.Revenue,
		Counters: ctrs,
	}, nil
}

// estimateShard is runShard's estimate-mode leg: no machine is built.
// The shard's service time comes from the analytic cost model walking
// the shard's selectivity profile — the same estimator the adaptive
// planner ranks candidates with — and the answer partials come from the
// shard reference evaluator, so the merge step's whole-table
// verification still passes exactly; only the cycle figure is
// approximate (bounded error, pinned by test — see docs/PERFORMANCE.md).
func (c *Cluster) estimateShard(s int, p query.Plan) (ShardPartial, error) {
	shard := c.shards[s]
	est, err := cost.EstimatePlan(c.params, p, cost.ProfileFor(shard, p))
	if err != nil {
		return ShardPartial{}, err
	}
	cycles := uint64(math.Round(est.Cycles))
	if p.Kind == query.Q1Agg {
		ref := db.ReferenceQ1(shard, p.Q1)
		return ShardPartial{
			Shard:   s,
			Cycles:  cycles,
			Matches: ref.Matches,
			Revenue: ref.Revenue(),
			Groups:  append([]db.GroupAgg(nil), ref.Groups[:]...),
		}, nil
	}
	ref := db.Reference(shard, p.Q)
	return ShardPartial{
		Shard:   s,
		Cycles:  cycles,
		Matches: ref.Matches,
		Revenue: ref.Revenue,
	}, nil
}

// merge folds shard partials into a verified Response.
func (c *Cluster) merge(req Request, parts []ShardPartial) (*Response, error) {
	resp := &Response{Request: req, Shards: parts}
	for _, p := range parts {
		resp.Matches += p.Matches
		resp.Revenue += p.Revenue
		resp.WorkCycles += p.Cycles
		if p.Cycles > resp.Cycles {
			resp.Cycles = p.Cycles
		}
		if p.Counters != nil {
			if resp.Counters == nil {
				resp.Counters = p.Counters.Clone()
			} else {
				resp.Counters.Add(p.Counters)
			}
		}
	}
	if req.Plan.Kind == query.Q1Agg {
		return c.mergeQ1(req, resp, parts)
	}
	ref := c.reference(req.Plan.Q)
	if resp.Matches != ref.Matches {
		return nil, fmt.Errorf("serve: %s: merged matches %d, reference %d",
			req.Plan, resp.Matches, ref.Matches)
	}
	if resp.Revenue != ref.Revenue {
		return nil, fmt.Errorf("serve: %s: merged revenue %d, reference %d",
			req.Plan, resp.Revenue, ref.Revenue)
	}
	return resp, nil
}

// mergeQ1 recomposes per-shard group aggregates — contiguous shards
// tile the table, so every (group, aggregate) sum is the plain sum of
// the shard values — and verifies the merged table against the
// unsharded reference evaluator.
func (c *Cluster) mergeQ1(req Request, resp *Response, parts []ShardPartial) (*Response, error) {
	merged := make([]db.GroupAgg, db.NumGroups)
	for g := range merged {
		merged[g].ReturnFlag = int32(g / db.LSValues)
		merged[g].LineStatus = int32(g % db.LSValues)
	}
	for _, p := range parts {
		if len(p.Groups) != db.NumGroups {
			return nil, fmt.Errorf("serve: %s: shard %d returned %d groups, want %d",
				req.Plan, p.Shard, len(p.Groups), db.NumGroups)
		}
		for g := range merged {
			merged[g].Add(p.Groups[g])
		}
	}
	resp.Groups = merged
	ref := c.referenceQ1(req.Plan.Q1)
	if resp.Matches != ref.Matches {
		return nil, fmt.Errorf("serve: %s: merged matches %d, reference %d",
			req.Plan, resp.Matches, ref.Matches)
	}
	for g := range merged {
		if merged[g] != ref.Groups[g] {
			return nil, fmt.Errorf("serve: %s: merged group %d %+v, reference %+v",
				req.Plan, g, merged[g], ref.Groups[g])
		}
	}
	return resp, nil
}

// Query admits one request — routing ArchAuto requests to the
// predicted-fastest backend first — scatters it across every shard
// (shard simulations run concurrently on the load tests' bounded
// executor pool, runPlanSet), gathers the partials, and returns the
// merged answer verified against the unsharded reference evaluator.
// Safe for concurrent callers.
func (c *Cluster) Query(req Request, opt Options) (*Response, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	req, routing, err := c.resolve(req)
	if err != nil {
		return nil, err
	}
	if err := c.Admit(req); err != nil {
		return nil, err
	}
	byPlan, err := c.runPlanSet([]query.Plan{req.Plan}, opt)
	if err != nil {
		return nil, err
	}
	resp, err := c.merge(req, byPlan[0])
	if err != nil {
		return nil, err
	}
	resp.Routing = routing
	// Close the feedback loop for routed online queries: the observed
	// critical-path cycles of the completed request update the chosen
	// backend's (kind, selectivity-bucket) cell.
	if routing != nil {
		c.adaptMu.Lock()
		if c.adapt != nil {
			c.adapt.Observe(req.Plan.Kind, req.Plan.Arch, routing.Selectivity, float64(resp.Cycles))
		}
		c.adaptMu.Unlock()
	}
	if opt.Exec == sweep.ExecEstimate {
		resp.ExecMode = opt.Exec.String()
	}
	return resp, nil
}
