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
	"runtime"
	"slices"
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
// Figure 3d shape, query.BestPlan) over predicate q — the natural plan
// for a serving request that only picks an architecture. ArchAuto
// returns the unresolved auto request plan; the cluster routes it at
// admission.
func DefaultPlan(arch query.Arch, q db.Q06) query.Plan {
	if arch == query.ArchAuto {
		return query.Plan{Arch: query.ArchAuto, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q}
	}
	return query.BestPlan(arch, q)
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

// ShardPartial is one shard's contribution to a request: the shard's
// leg (sweep.Leg) — its service time in Cycles, and its machine-counter
// snapshot when Options.Counters is set — plus the answer partials that
// merge into the whole-table answer. The answers come from the shard
// reference evaluator in either mode; an exact leg has verified its
// machine against that same reference. Groups holds a Q01 request's
// per-group aggregates in db.GroupID order (nil for selection
// requests); contiguous shards tile the table, so group partials
// recompose by index.
type ShardPartial struct {
	Shard int
	sweep.Partial
	// Matches is the cardinality of the shard's result bitmask.
	Matches int
	Revenue int64
}

// clone returns a copy of sp sharing no memory with it, so the caller
// may edit the copy's Groups and Counters.
func (sp ShardPartial) clone() ShardPartial {
	sp.Groups = slices.Clone(sp.Groups)
	sp.Counters = sp.Counters.Clone()
	return sp
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
	// OnTask, when non-nil, is called after each shard leg the call
	// runs, with the number completed so far and the total of legs it
	// runs. A leg served from the cluster's memo of verified exact legs
	// runs nothing and is not counted, so a call that runs no leg makes
	// no call. Calls are serialised but arrive in completion order —
	// progress only.
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
// shards, each scanned by its own simulated machine. Its machine and
// energy models and its shards are fixed at New. Its caches fill as it
// serves and are never evicted: reference answers per (table,
// predicate), routing decisions per (kind, predicate) and verified
// exact shard legs per (plan, shard, counters), one entry per distinct
// key served. A Cluster is safe for concurrent Query and LoadTest
// calls.
type Cluster struct {
	// cfg holds the shard machines' model (Machine is always set: the
	// configuration every shard leg draws from the process-wide machine
	// pool) and the energy model their runs are audited with.
	cfg    sweep.Config
	whole  *db.Table
	shards []*db.Table

	mu sync.Mutex
	// params is the cost model the planner routes and estimate legs
	// price with, derived from the machine and energy models at New.
	// Calibrate replaces it, so readers take one snapshot (costParams).
	params cost.Params
	// answers memoises reference answers per (table, predicate), for
	// the whole table and for each shard.
	answers map[answerKey]answer
	// routes caches routing decisions per distinct (kind, predicate):
	// profiling the table is O(rows), so repeated predicates — the
	// common case in serving streams — route from the cache. Decisions
	// are pure functions of (table, predicate, candidates), hence
	// deterministic at any worker count.
	routes map[routeKey]*cost.Decision
	// legs memoises verified exact shard partials per (plan, shard,
	// counters): an exact leg is a pure function of the models fixed at
	// New, the shard and the plan, so repeated load tests and queries
	// run each one once. Estimate legs and failed legs are never
	// stored, and entries are handed out as clones (runPlanSet).
	legs map[legKey]ShardPartial

	// adaptMu guards the online feedback-routing state used by the
	// concurrent Query paths (EnableAdaptive; nil when off). Load-test
	// replays never touch it — they build per-run state from
	// LoadSpec.Adaptive so a load test stays a pure function of its
	// inputs.
	adaptMu sync.Mutex
	adapt   *router
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
		mc.ImageBytes = db.ImageBytesFor(shards[0].N)
	}
	em := energy.Default()
	if cfg.Energy != nil {
		em = *cfg.Energy
	}
	return &Cluster{
		cfg:     sweep.Config{Machine: &mc, Energy: &em},
		whole:   tab,
		shards:  shards,
		params:  cost.ParamsFor(mc, em),
		answers: make(map[answerKey]answer),
		routes:  make(map[routeKey]*cost.Decision),
		legs:    make(map[legKey]ShardPartial),
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
	c.adapt = &router{ad: a}
	c.adaptMu.Unlock()
	return nil
}

// Calibrate replaces the routing planner's cost model and drops every
// cached routing decision. Answers and exact-mode service times are
// untouched — the simulated machines keep their real timing, and the
// memo of verified exact legs survives — so a drifted calibration
// changes only which backend the planner predicts fastest. This is the
// hook mis-calibration experiments and the adaptive-routing benchmarks
// use to pull the analytic prior away from the served machine.
// Estimate-mode runs price service times from the same model and would
// inherit the drift.
func (c *Cluster) Calibrate(p cost.Params) {
	c.mu.Lock()
	c.params = p
	c.routes = make(map[routeKey]*cost.Decision)
	c.mu.Unlock()
}

// costParams snapshots the cost model under the lock Calibrate writes
// it under. Each Query and load test takes one snapshot and hands it to
// routing and to its legs.
func (c *Cluster) costParams() cost.Params {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.params
}

// legKey identifies one memoised exact shard leg.
type legKey struct {
	plan     query.Plan
	shard    int
	counters bool
}

// routeKey identifies one distinct routable query.
type routeKey struct {
	kind query.QueryKind
	q    db.Q06
	q1   db.Q01
	agg  bool
}

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
		_, _, err := c.resolve(req, c.costParams())
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
// the candidates are every backend's best serving shape over
// the request's predicate, trimmed to the plans every shard can
// execute, ranked by the cost model against the served table's
// selectivity profile. Fixed-architecture requests pass through
// untouched. Decisions are cached per distinct predicate and are pure
// functions of the cluster's table, so routing is deterministic and
// auditable (the decision lands in Response.Routing and the report's
// routing columns). pr is the caller's cost-model snapshot.
func (c *Cluster) resolve(req Request, pr cost.Params) (Request, *cost.Decision, error) {
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
		d, err = cost.PickSharded(pr, c.shards, candidates)
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
		if nd, err := c.adapt.rankNext(cands); err == nil {
			d = nd
		}
	}
	c.adaptMu.Unlock()
	req.Plan = d.Chosen
	return req, d, nil
}

// answer is the reference evaluator's answer for one table and
// predicate: what a verified scan of that table returns.
type answer struct {
	matches int
	revenue int64
	// groups holds a Q01 predicate's per-group aggregates in
	// db.GroupID order (nil for Q06 predicates).
	groups []db.GroupAgg
}

// answerKey identifies one memoised answer: a table (the whole table
// or one shard) and a predicate.
type answerKey struct {
	tab  *db.Table
	kind query.QueryKind
	q    db.Q06
	q1   db.Q01
}

// answer returns plan p's reference answer over tab, computed once per
// (table, predicate). Concurrent first callers may both evaluate it;
// the answer is a pure function of its key, so either store is right.
func (c *Cluster) answer(tab *db.Table, p query.Plan) answer {
	k := answerKey{tab: tab, kind: p.Kind, q: p.Q, q1: p.Q1}
	c.mu.Lock()
	a, ok := c.answers[k]
	c.mu.Unlock()
	if ok {
		return a
	}
	if p.Kind == query.Q1Agg {
		ref := db.ReferenceQ1(tab, p.Q1)
		a = answer{matches: ref.Matches, revenue: ref.Revenue(), groups: slices.Clone(ref.Groups[:])}
	} else {
		ref := db.Reference(tab, p.Q)
		a = answer{matches: ref.Matches, revenue: ref.Revenue}
	}
	c.mu.Lock()
	c.answers[k] = a
	c.mu.Unlock()
	return a
}

// merge folds shard partials (sweep.Fold) into a Response and verifies
// its answer against the unsharded reference evaluator.
func (c *Cluster) merge(req Request, parts []ShardPartial) (*Response, error) {
	f := sweep.Fold(len(parts), func(s int) sweep.Partial { return parts[s].Partial })
	resp := &Response{Request: req, Shards: parts, Cycles: f.Cycles, Groups: f.Groups, Counters: f.Counters}
	for _, p := range parts {
		resp.Matches += p.Matches
		resp.Revenue += p.Revenue
		resp.WorkCycles += p.Cycles
	}
	ref := c.answer(c.whole, req.Plan)
	if resp.Matches != ref.matches {
		return nil, fmt.Errorf("serve: %s: merged matches %d, reference %d",
			req.Plan, resp.Matches, ref.matches)
	}
	if resp.Revenue != ref.revenue {
		return nil, fmt.Errorf("serve: %s: merged revenue %d, reference %d",
			req.Plan, resp.Revenue, ref.revenue)
	}
	for g := range ref.groups {
		if resp.Groups[g] != ref.groups[g] {
			return nil, fmt.Errorf("serve: %s: merged group %d %+v, reference %+v",
				req.Plan, g, resp.Groups[g], ref.groups[g])
		}
	}
	return resp, nil
}

// Query admits one request — routing ArchAuto requests to the
// predicted-fastest backend first — scatters it across every shard
// (shard legs run concurrently on the load tests' bounded executor
// pool, runPlanSet), gathers the partials, and returns the merged
// answer verified against the unsharded reference evaluator. Safe for
// concurrent callers.
func (c *Cluster) Query(req Request, opt Options) (*Response, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	pr := c.costParams()
	req, routing, err := c.resolve(req, pr)
	if err != nil {
		return nil, err
	}
	resp, err := c.run(req, opt, pr)
	if err != nil {
		return nil, err
	}
	resp.Routing = routing
	// Close the feedback loop for routed online queries: the observed
	// critical-path cycles of the completed request update the chosen
	// backend's (kind, selectivity-bucket) cell.
	if routing != nil {
		c.adaptMu.Lock()
		c.adapt.observe(req.Plan, routing.Selectivity, resp.Cycles)
		c.adaptMu.Unlock()
	}
	return resp, nil
}

// run executes one routed request over every shard with cost-model
// snapshot pr and merges the partials.
func (c *Cluster) run(req Request, opt Options, pr cost.Params) (*Response, error) {
	if err := c.Admit(req); err != nil {
		return nil, err
	}
	byPlan, err := c.runPlanSet([]query.Plan{req.Plan}, opt, pr)
	if err != nil {
		return nil, err
	}
	resp, err := c.merge(req, byPlan[0])
	if err != nil {
		return nil, err
	}
	if opt.Exec == sweep.ExecEstimate {
		resp.ExecMode = opt.Exec.String()
	}
	return resp, nil
}
