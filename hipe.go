// Package hipe is the public API of the HIPE reproduction: a simulator
// for HMC Instruction Predication Extension (Tomé et al., DATE 2018) and
// every substrate its evaluation rests on — the out-of-order x86
// baseline with its cache hierarchy, the Hybrid Memory Cube DRAM and
// SerDes links, the extended HMC 2.1 instruction baseline, the HIVE
// vector engine, and the HIPE predicated engine itself, exercised by a
// TPC-H Query 06 selection-scan workload over row-store and column-store
// layouts.
//
// Quick start:
//
//	tab := hipe.Generate(16384, 42)
//	res, err := hipe.Run(hipe.Default(), tab, hipe.Plan{
//		Arch:     hipe.HIPE,
//		Strategy: hipe.ColumnAtATime,
//		OpSize:   256,
//		Unroll:   32,
//		Q:        hipe.DefaultQ06(),
//	})
//
// Every figure of the paper regenerates through Figure:
//
//	table, err := hipe.Figure(hipe.Default(), "3d")
//	fmt.Print(table)
package hipe

import (
	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/fault"
	"github.com/hipe-sim/hipe/internal/harness"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/serve"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// Core workload and experiment types (aliases into the implementation
// packages so external users need only this package).
type (
	// Plan selects architecture, scan strategy, operation size and
	// unroll depth for one experiment.
	Plan = query.Plan
	// Arch is one of the four evaluated architectures.
	Arch = query.Arch
	// Strategy is the scan strategy / storage layout pair.
	Strategy = query.Strategy
	// Lineitem is the generated TPC-H lineitem subset.
	Lineitem = db.Table
	// Q06 is the TPC-H Query 06 predicate.
	Q06 = db.Q06
	// Q01 is the TPC-H Query 01-style aggregation predicate: a shipdate
	// filter whose query groups by (returnflag, linestatus) and
	// accumulates per-group COUNT/SUM aggregates.
	Q01 = db.Q01
	// GroupAgg is one (returnflag, linestatus) group's aggregates.
	GroupAgg = db.GroupAgg
	// Q1Result is the reference outcome of the Q01 aggregation.
	Q1Result = db.Q1Result
	// QueryKind selects a plan's workload family (Q6Select or Q1Agg).
	QueryKind = query.QueryKind
	// Config parameterises experiment runs (tuples, seed, machine).
	Config = harness.Config
	// Result is the outcome of one simulated plan.
	Result = harness.Result
	// FigureTable is a rendered experiment series.
	FigureTable = harness.Table
	// MachineConfig exposes every Table I parameter for customisation.
	MachineConfig = machine.Config
	// EnergyModel holds the energy constants.
	EnergyModel = energy.Model
	// EnergyBreakdown is a per-component energy audit.
	EnergyBreakdown = energy.Breakdown
	// Grid declares a parameter sweep as a cross-product of axes.
	Grid = sweep.Grid
	// Cell is one fully-instantiated sweep experiment.
	Cell = sweep.Cell
	// CellResult is one aggregated sweep outcome (result, selectivity,
	// speedup against the workload group's x86 baseline).
	CellResult = sweep.CellResult
	// ResultSet aggregates a sweep, ordered by cell index, with CSV and
	// JSON exporters.
	ResultSet = sweep.ResultSet
	// SweepOptions tune a sweep run (worker count, progress callback,
	// counter capture, execution mode, intra-cell shard parallelism).
	SweepOptions = sweep.Options
	// ExecMode selects exact machine simulation (ExecExact, the default)
	// or the analytic cost model's calibrated fast path (ExecEstimate)
	// for every sweep cell and serving shard leg, sharded or not.
	// Estimate mode bounds cycle error (pinned by test; see
	// docs/PERFORMANCE.md), keeps serving answers exact (sweep estimate
	// cells compute no answers), and refuses outputs only real
	// simulation can produce (machine counters, traces).
	ExecMode = sweep.ExecMode
	// Cluster is a sharded serving fleet: one table partitioned across
	// simulated machines, answering concurrent Q06-family requests.
	Cluster = serve.Cluster
	// ServeRequest is one admitted query (a full plan over the fleet).
	ServeRequest = serve.Request
	// ServeResponse is a merged, verified whole-table answer.
	ServeResponse = serve.Response
	// ServeOptions tune cluster execution: the executor pool running
	// shard simulations, counter capture, virtual-time tracing, the
	// execution mode (exact simulation or the estimate fast path), and
	// an OnTask progress callback that fires once per shard leg a call
	// runs (a cluster simulates each exact leg once and serves repeats
	// from its memo, which OnTask does not count).
	ServeOptions = serve.Options
	// StreamSpec declares a seeded mixed-selectivity request stream.
	StreamSpec = serve.StreamSpec
	// LoadSpec declares an open- or closed-loop load test.
	LoadSpec = serve.LoadSpec
	// LoadReport is a load test's outcome: throughput, latency
	// quantiles, per-shard utilisation and per-request traces, with
	// CSV/JSON exporters that are byte-identical at any worker count.
	LoadReport = serve.Report
	// Fleet is a replicated serving fleet: R replica pools over one
	// sharded table, each pool pinned to a backend family, routed
	// jointly by predicted critical path and queue depth.
	Fleet = serve.Fleet
	// TraceSpec declares a trace-driven, non-homogeneous open-loop
	// arrival process (diurnal modulation plus bursts), seeded and
	// exactly replayable.
	TraceSpec = serve.TraceSpec
	// ClassSpec declares one admission class: its latency SLO and the
	// queueing patience admission control sheds it past.
	ClassSpec = serve.ClassSpec
	// ClassStats is one class's report row: counts, latency quantiles
	// and exact SLO attainment.
	ClassStats = serve.ClassStats
	// PoolStats is one replica pool's report row.
	PoolStats = serve.PoolStats
	// PoolPick records the fleet router's (replica, backend) choice for
	// one request.
	PoolPick = serve.PoolPick
	// ShedTrace records one request admission control refused.
	ShedTrace = serve.ShedTrace
	// FaultSpec declares a seeded deterministic fault schedule for a
	// fleet load test: stochastic replica crashes with later recovery,
	// per-shard straggler slowdowns, bounded transient stalls, and
	// scheduled (pinned) outages. The zero value injects nothing, and
	// the fault streams are decorrelated from every other seeded draw,
	// so enabling faults never changes which requests or arrival times
	// a test contains.
	FaultSpec = fault.Spec
	// FaultCrash is one scheduled replica-pool outage of a FaultSpec.
	FaultCrash = fault.Crash
	// RecoverySpec declares the fleet's request-level recovery policy:
	// capped exponential-backoff retries, hedged second attempts, and
	// health-aware failover routing. Per-class attempt timeouts and
	// hedge delays live on ClassSpec.
	RecoverySpec = serve.RecoverySpec
	// FaultStats totals a faulted/recovering load test's fault events
	// and recovery actions (LoadReport.Faults).
	FaultStats = serve.FaultStats
	// Counters is a deterministic machine-counter snapshot: sorted
	// "scope.counter" keys captured from a run's registry (cache hits,
	// DRAM traffic, predication squashes, scheduler lane accounting).
	// Captured only when ServeOptions/SweepOptions set Counters — off
	// by default and free when off.
	Counters = obs.Counters
	// CounterEntry is one key/value pair of a Counters snapshot.
	CounterEntry = obs.Entry
	// Trace is the virtual-time request tracer: per-request span trees
	// in simulated cycles, recorded during a load test's
	// single-threaded replay when ServeOptions.Trace is set, exported
	// as Chrome trace_event JSON (Perfetto-loadable) or flat CSV.
	Trace = obs.Trace
	// TraceSpan is one recorded span of a Trace: name, category,
	// process/thread track, phase and virtual-cycle timestamps.
	TraceSpan = obs.Span
	// TraceArg is one key/value annotation attached to a TraceSpan.
	TraceArg = obs.Arg
	// TracePhase is a TraceSpan's event kind (complete, begin, end,
	// instant — see the TracePhase* constants).
	TracePhase = obs.Phase
	// Profile bundles the CLI profiling hooks (-cpuprofile,
	// -memprofile, -trace-out): Go pprof CPU/heap profiles and the
	// runtime execution trace of the simulator process itself.
	Profile = obs.Profile
)

// Architectures. ArchAuto is the adaptive planner's sentinel: a plan
// (or serving request, or sweep cell) carrying it is routed to the
// predicted-fastest backend by the analytic cost model before it
// compiles.
const (
	X86      = query.X86
	HMC      = query.HMC
	HIVE     = query.HIVE
	HIPE     = query.HIPE
	ArchAuto = query.ArchAuto
)

// Trace span phases (see TraceSpan).
const (
	TracePhaseComplete = obs.PhaseComplete
	TracePhaseBegin    = obs.PhaseBegin
	TracePhaseEnd      = obs.PhaseEnd
	TracePhaseInstant  = obs.PhaseInstant
)

// Execution modes (see ExecMode).
const (
	// ExecExact runs full machine simulations — the default, and the
	// only mode that produces machine counters and traces.
	ExecExact = sweep.ExecExact
	// ExecEstimate prices cells and shard legs with the analytic cost
	// model instead of simulating — orders of magnitude faster, bounded
	// cycle error.
	ExecEstimate = sweep.ExecEstimate
)

// ParseExecMode resolves an -exec flag spelling ("exact", "estimate")
// to its mode.
func ParseExecMode(s string) (ExecMode, bool) { return sweep.ParseExecMode(s) }

// ExecModeChoices renders the valid -exec spellings for usage errors.
func ExecModeChoices() string { return sweep.ExecModeChoices() }

// Backend table and cost-model types (aliases into the implementation
// packages).
type (
	// Backend is one of the paper's four execution architectures: its
	// Arch and its static capability report.
	Backend = query.Backend
	// BackendCaps is a backend's capability/constraint envelope.
	BackendCaps = query.Caps
	// CostParams are the analytic cost model's per-operation costs,
	// derived from the simulated machine's latency constants.
	CostParams = cost.Params
	// CostEstimate is the model's cycle/energy prediction for one plan.
	CostEstimate = cost.Estimate
	// RoutingDecision is one routing outcome: profiled selectivity,
	// every candidate's estimate, and the chosen plan — plus, for
	// feedback-driven picks, the blended observed cycles, bucket sample
	// counts, route mode and exploration provenance.
	RoutingDecision = cost.Decision
	// AdaptiveSpec declares feedback-driven routing: observed replay
	// cycles are folded into a per-(kind, backend, selectivity-bucket)
	// EWMA and blended with the analytic prior — prior-weighted while a
	// bucket is cold, observation-dominated once it has samples — with
	// a deterministic exploration floor drawn from a decorrelated seeded
	// stream. Set LoadSpec.Adaptive for a fleet load test (replayed
	// single-threaded, so exports stay byte-identical at any worker
	// count) or pass it to Cluster.EnableAdaptive, whose state serves
	// online Query calls only: Admit and load tests never read it. The
	// zero value of each knob selects its documented default.
	AdaptiveSpec = cost.AdaptiveConfig
	// WorkloadProfile is the selectivity profile the model consumes.
	WorkloadProfile = cost.Profile
)

// MaxAdaptiveBuckets bounds AdaptiveSpec.Buckets. The selectivity
// buckets are halving intervals, so 64 already reaches sel = 2^-63 —
// far below anything a generated table can produce.
const MaxAdaptiveBuckets = cost.MaxAdaptiveBuckets

// Backends returns the execution backends in architecture order.
func Backends() []Backend { return query.Backends() }

// ArchNames returns the backend names — what CLIs validate -arch flags
// against instead of a hard-coded list.
func ArchNames() []string { return query.BackendNames() }

// ArchChoices renders the valid -arch spellings for usage errors: the
// backend names plus "auto".
func ArchChoices() string { return query.ArchChoices() }

// ParseArch resolves a backend name (or "auto") to its architecture.
func ParseArch(name string) (Arch, bool) { return query.ParseArch(name) }

// DefaultCostParams derives the adaptive planner's cost model from the
// paper's Table I machine and default energy constants.
func DefaultCostParams() CostParams { return cost.DefaultParams() }

// ProfileWorkload computes the exact selectivity profile of plan p's
// predicate over tab at p's chunk granularity — the model's input.
func ProfileWorkload(tab *Lineitem, p Plan) WorkloadProfile { return cost.ProfileFor(tab, p) }

// EstimateCost predicts the simulated cycles and energy of one concrete
// plan over tab without running the simulator.
func EstimateCost(pr CostParams, tab *Lineitem, p Plan) (CostEstimate, error) {
	return cost.EstimatePlan(pr, p, cost.ProfileFor(tab, p))
}

// PickPlan ranks candidate plans by estimated cycles over tab and
// returns the routing decision for the predicted-fastest.
func PickPlan(pr CostParams, tab *Lineitem, candidates []Plan) (*RoutingDecision, error) {
	return cost.Pick(pr, tab, candidates)
}

// Scan strategies.
const (
	TupleAtATime  = query.TupleAtATime
	ColumnAtATime = query.ColumnAtATime
)

// Workload families. A zero Plan runs Q6Select; set Plan.Kind = Q1Agg
// (and Plan.Q1) for the grouped aggregation.
const (
	Q6Select = query.Q6Select
	Q1Agg    = query.Q1Agg
)

// Workload-family constants re-exported for callers that validate
// query parameters (CLIs, config loaders).
const (
	// ShipDateDays is the span of generated l_shipdate values.
	ShipDateDays = db.ShipDateDays
	// NumGroups is the (returnflag × linestatus) group cardinality of
	// the Q01 aggregation.
	NumGroups = db.NumGroups
)

// NominalHz is the Table I core clock (2 GHz): the one conversion
// factor between simulated cycles and wall-clock-style figures (QPS,
// microseconds) in serving flags and reports. Simulated results stay
// in cycles; this is presentation only.
const NominalHz = serve.NominalHz

// Default returns the standard experiment configuration (Table I machine,
// 16384 tuples, seed 42).
func Default() Config { return harness.Default() }

// DefaultMachine returns the paper's Table I machine configuration.
func DefaultMachine() MachineConfig { return machine.Default() }

// DefaultEnergy returns the default energy constants.
func DefaultEnergy() EnergyModel { return energy.Default() }

// DefaultQ06 returns the TPC-H Query 06 predicate parameters.
func DefaultQ06() Q06 { return db.DefaultQ06() }

// DefaultQ01 returns the TPC-H Query 01 predicate parameters (the
// 90-day delta shipdate cutoff).
func DefaultQ01() Q01 { return db.DefaultQ01() }

// ReferenceQ1 evaluates the Q01 grouped aggregation in plain Go — the
// oracle every simulated aggregation plan is verified against.
func ReferenceQ1(t *Lineitem, q Q01) *db.Q1Result { return db.ReferenceQ1(t, q) }

// SelectivityQ1 reports the fraction of t passing the Q01 filter.
func SelectivityQ1(t *Lineitem, q Q01) float64 { return db.SelectivityQ1(t, q) }

// Generate builds a lineitem table with dbgen-like distributions,
// deterministically from seed. n must be a multiple of 64.
func Generate(n int, seed uint64) *Lineitem { return db.Generate(n, seed) }

// GenerateClustered builds a lineitem table whose shipdates follow the
// physical row order (an append-ordered fact table). Clustering is what
// lets HIPE's predication skip whole chunks of the later columns; see the
// ablation benches.
func GenerateClustered(n int, seed uint64, noiseDays int32) *Lineitem {
	return db.GenerateClustered(n, seed, noiseDays)
}

// Selectivity reports the fraction of t matching q.
func Selectivity(t *Lineitem, q Q06) float64 { return db.Selectivity(t, q) }

// Run executes one plan on a machine in its freshly built state (one
// the process built before and reset, when an earlier exact call used
// the same machine configuration), verifies the computed bitmask
// against the reference evaluator, and audits energy.
func Run(cfg Config, tab *Lineitem, p Plan) (Result, error) { return cfg.Run(tab, p) }

// Figure regenerates one panel of the paper's Figure 3 ("3a".."3d").
func Figure(cfg Config, name string) (*FigureTable, error) { return harness.Figure(cfg, name) }

// FigureCells expands one Figure 3 panel's cell set without running it
// — the exact workload Figure(name) simulates, for driving through
// SweepCells with explicit options such as Counters.
func FigureCells(cfg Config, name string) ([]Cell, error) { return harness.FigureCells(cfg, name) }

// Sweep expands grid and executes every cell through the worker-pool
// engine on GOMAXPROCS workers. Grid axes left empty take defaults,
// with Tuples and Seeds inherited from cfg. Results are aggregated by
// cell index, so the outcome — including CSV/JSON exports — is
// byte-identical at any worker count.
func Sweep(cfg Config, grid Grid) (*ResultSet, error) {
	return sweep.Run(cfg, grid, sweep.Options{})
}

// SweepWith is Sweep with explicit options: worker count, per-cell
// progress callback, counter capture, the execution mode (ExecEstimate
// prices cells with the cost model instead of simulating), and
// intra-cell shard parallelism (CellShards > 1 cuts each cell's table
// into shards run concurrently in either mode and merged
// deterministically).
func SweepWith(cfg Config, grid Grid, opt SweepOptions) (*ResultSet, error) {
	return sweep.Run(cfg, grid, opt)
}

// SweepCells executes an explicit cell list (e.g. from Grid.Expand or
// hand-built plans) through the worker pool.
func SweepCells(cfg Config, cells []Cell, opt SweepOptions) (*ResultSet, error) {
	return sweep.RunCells(cfg, cells, opt)
}

// Serve partitions tab across nShards simulated machines and returns
// the serving cluster. Every Query scatters over the shards, and the
// merged match count and revenue are verified against the unsharded
// reference evaluator. The cluster is safe for concurrent Query calls.
func Serve(cfg Config, tab *Lineitem, nShards int) (*Cluster, error) {
	return serve.New(cfg, tab, nShards)
}

// ServePlan returns the per-architecture best plan shape (the Figure 3d
// configurations) over predicate q — the natural serving request.
func ServePlan(arch Arch, q Q06) Plan { return serve.DefaultPlan(arch, q) }

// ServeQ1Plan returns the per-architecture best plan shape for the Q01
// grouped aggregation over predicate q.
func ServeQ1Plan(arch Arch, q Q01) Plan { return serve.DefaultQ1Plan(arch, q) }

// OpenLoop declares an open-loop load test: reqs arrive on a seeded
// Poisson process with the given mean interarrival gap in simulated
// cycles; duration (0 = unlimited) truncates the admitted stream.
func OpenLoop(reqs []ServeRequest, meanInterarrival, duration uint64, seed uint64) LoadSpec {
	return serve.OpenLoop(reqs, meanInterarrival, duration, seed)
}

// ClosedLoop declares a closed-loop load test: concurrency clients
// drain reqs, each keeping one request outstanding with zero think
// time.
func ClosedLoop(reqs []ServeRequest, concurrency int) LoadSpec {
	return serve.ClosedLoop(reqs, concurrency)
}

// TraceLoop declares a trace-driven open-loop load test: reqs arrive
// on the seeded non-homogeneous process trace describes; duration
// (0 = unlimited) truncates the admitted stream.
func TraceLoop(reqs []ServeRequest, trace TraceSpec, duration uint64, seed uint64) LoadSpec {
	return serve.TraceLoop(reqs, trace, duration, seed)
}

// ServeFleet builds a replicated fleet over tab cut into nShards
// shards, one complete replica per entry of pools, each pinned to that
// backend family. Fleet.LoadTest honours admission classes and
// shedding; its reports carry per-pool and per-class (SLO-attainment)
// accounting and stay byte-identical at any worker count.
func ServeFleet(cfg Config, tab *Lineitem, nShards int, pools []Arch) (*Fleet, error) {
	return serve.NewFleet(cfg, tab, nShards, pools)
}

// LoadTest runs spec against the cluster and returns the report:
// per-request latencies on the virtual serving timeline, P50/P95/P99
// quantiles, throughput and per-shard utilisation. Deterministic —
// byte-identical exports — at any executor worker count.
func LoadTest(c *Cluster, spec LoadSpec, opt ServeOptions) (*LoadReport, error) {
	return c.LoadTest(spec, opt)
}

// Figures lists the reproducible panels.
func Figures() []string { return harness.Figures() }

// BestPlans returns the per-architecture best configurations compared in
// Figure 3d.
func BestPlans(q Q06) map[Arch]Plan { return harness.BestPlans(q) }
