// Command hipe-serve load-tests a sharded fleet of simulated HMC
// machines: it partitions a lineitem table across N shards, generates a
// seeded mixed-selectivity Q06 request stream, drives it open-loop (a
// Poisson arrival process at a target QPS) or closed-loop (a fixed
// client count), and reports throughput, latency quantiles and
// per-shard utilisation. Reports are byte-identical at any executor
// worker count; CSV/JSON exports follow hipe-sweep's conventions.
//
// Usage:
//
//	hipe-serve -shards 8 -requests 64 -mode open -qps 20000 \
//	           [-archs x86,hmc,hive,hipe|auto] [-aggregate] \
//	           [-q1-every 4] [-q1-cut 2436] [-clustered] [-noise 10] \
//	           [-duration-ms 0] [-concurrency 4] \
//	           [-pools hipe,hipe,x86] [-classes "batch:400:100,rt:200:0"] [-shed] \
//	           [-fault-seed 7] [-crash-every-us 500] [-crash-down-us 150] \
//	           [-crash "1:40:120"] [-straggle-every-us 300] [-straggle-for-us 100] \
//	           [-straggle-factor 3] [-stall-every-us 400] [-stall-for-us 20] [-stall-max-us 60] \
//	           [-retries 2] [-retry-backoff-us 5] [-retry-backoff-cap-us 40] \
//	           [-timeout-us 400] [-hedge-us 150] [-failover] \
//	           [-adaptive] [-explore-pct 1] [-obs-halflife 8] [-buckets 8] [-adapt-seed 11] \
//	           [-trace] [-trace-period-us 2000] [-trace-amp 0.5] \
//	           [-burst 4] [-burst-on-us 200] [-burst-off-us 600] \
//	           [-tuples 16384] [-seed 42] [-stream-seed 1] \
//	           [-exec exact|estimate] [-workers N] [-csv out.csv] [-json out.json] \
//	           [-counters] [-trace-json trace.json] [-spans-csv spans.csv] \
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace-out exec.trace]
//
// -exec selects the execution mode. "exact" (the default) replays every
// shard on a full machine model. "estimate" prices each (plan, shard)
// with the analytic cost model instead — answers stay exact (they come
// from the reference evaluators), only service times are approximate,
// with the bounded error documented in docs/PERFORMANCE.md — and the
// report gains an exec_mode marker and CSV column. Estimate mode cannot
// produce machine counters or machine-replay traces, so -exec estimate
// with -counters, -trace-json or -spans-csv is refused.
//
// -pools engages the replicated fleet: each entry is one complete
// replica of all shards pinned to that backend family, and every
// request is routed to the (replica, backend) pair with the lowest
// predicted critical path plus current queue depth. -classes declares
// admission classes as name:slo_µs:patience_µs triples (patience 0 =
// never shed); with -shed, overload refuses work whose class patience
// even the least-loaded replica exceeds — lowest patience sheds first.
// Fleet reports add per-pool and per-class (SLO-attainment) rows.
//
// The fault flags inject a deterministic, seeded fault schedule into a
// fleet run: stochastic replica crashes (-crash-every-us/-crash-down-us)
// with recovery, scheduled outages (-crash pool:at_µs:down_µs triples),
// per-shard straggler slowdowns (-straggle-*) and bounded transient
// stalls (-stall-*). The recovery flags drive the fleet's response:
// per-attempt timeouts (-timeout-us), capped exponential-backoff
// retries (-retries/-retry-backoff-us/-retry-backoff-cap-us), hedged
// second attempts (-hedge-us) and health-aware failover routing
// (-failover). A request whose retry budget runs out degrades to a
// partial answer with exact coverage and relative-error columns.
// Faulted runs stay byte-identical at any -workers count; fault-free
// runs are byte-identical to pre-fault builds.
//
// -adaptive closes the loop between observed replay cycles and the
// routing planner on a fleet run: each completed request's service
// cycles feed a per-(kind, backend, selectivity-bucket) EWMA, and
// routing blends that running average with the analytic prior —
// prior-weighted while a bucket is cold, observation-dominated once it
// has samples. A deterministic exploration floor (-explore-pct, drawn
// from the -adapt-seed decorrelated stream) keeps sampling backends
// the blend would otherwise starve. Adaptive picks add route_mode,
// obs_cycles, bucket_samples and explored CSV columns; the replay is
// single-threaded over virtual time, so adaptive runs stay
// byte-identical at any -workers count.
//
// -trace swaps the open loop's Poisson process for a trace-driven
// non-homogeneous one: -trace-period-us/-trace-amp add a diurnal
// sinusoid, -burst/-burst-on-us/-burst-off-us an on/off burst process.
// Still seeded and exactly replayable.
//
// -q1-every N mixes TPC-H Q01-style grouped aggregations into the
// stream (every Nth request): shards answer with per-group partial
// aggregates that recompose into the whole-table group table, verified
// against the unsharded reference evaluator.
//
// -archs auto engages the adaptive planner: each request is routed to
// the backend the analytic cost model predicts fastest for the
// request's selectivity profile on the served table. Routed reports
// carry extra routing-decision columns (the profiled selectivity and
// every candidate backend's estimated cycles) so each pick is
// auditable; routing is deterministic at any worker count. Pair with
// -clustered to serve the date-clustered layout where selectivity
// actually moves the per-backend costs.
//
// Observability is off by default and provably free when off. -counters
// snapshots the machine counter registry (cache hits, DRAM activates,
// link packets, squashed predicated ops, event-engine lanes…) into the
// summary and JSON export; totals sum each distinct shard simulation
// once. -trace-json/-spans-csv record every request's virtual-time span
// tree — admission, routing decision, per-shard machine replay,
// scatter-gather merge — and export it as Chrome trace_event JSON
// (loadable in Perfetto; 1 simulated cycle renders as 1 µs) or a flat
// span CSV. Both are byte-identical at any -workers count.
// -cpuprofile/-memprofile/-trace-out profile the simulator process
// itself (pprof CPU/heap, runtime execution trace) over the load test.
//
// Time is simulated: QPS and milliseconds convert to cycles at the
// Table I 2 GHz core clock; results are exact in cycles.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	hipe "github.com/hipe-sim/hipe"
	"github.com/hipe-sim/hipe/internal/cliutil"
)

// flagGroups files every hipe-serve flag under a subsystem; usage
// output prints group by group instead of one ~50-flag alphabetical
// list. main_test.go pins that no flag is left ungrouped.
var flagGroups = []cliutil.FlagGroup{
	{Title: "serving", Flags: []string{"shards", "requests", "mode", "qps", "duration-ms", "concurrency", "archs", "aggregate", "q1-every", "q1-cut"}},
	{Title: "table", Flags: []string{"tuples", "seed", "stream-seed", "clustered", "noise"}},
	{Title: "fleet", Flags: []string{"pools", "classes", "shed"}},
	{Title: "faults", Flags: []string{"fault-seed", "crash-every-us", "crash-down-us", "crash", "straggle-every-us", "straggle-for-us", "straggle-factor", "stall-every-us", "stall-for-us", "stall-max-us"}},
	{Title: "recovery", Flags: []string{"retries", "retry-backoff-us", "retry-backoff-cap-us", "timeout-us", "hedge-us", "failover"}},
	{Title: "adaptive", Flags: []string{"adaptive", "explore-pct", "obs-halflife", "buckets", "adapt-seed"}},
	{Title: "arrivals", Flags: []string{"trace", "trace-period-us", "trace-amp", "burst", "burst-on-us", "burst-off-us"}},
	{Title: "execution", Flags: []string{"exec", "workers", "quiet"}},
	{Title: "observability", Flags: []string{"counters", "trace-json", "spans-csv"}},
	{Title: "export", Flags: []string{"csv", "json"}},
	{Title: "profiling", Flags: []string{"cpuprofile", "memprofile", "trace-out"}},
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage of hipe-serve:")
	cliutil.PrintGroupedUsage(os.Stderr, flagGroups, flag.CommandLine)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hipe-serve: ")
	shards := flag.Int("shards", 4, "shard count (each shard is one simulated machine)")
	requests := flag.Int("requests", 32, "request-stream length")
	mode := flag.String("mode", "closed", "load discipline: open or closed")
	qps := flag.Float64("qps", 10000, "open loop: offered load in queries/second at the 2 GHz nominal clock")
	durationMS := flag.Float64("duration-ms", 0, "open loop: simulated duration bound in milliseconds (0 = unlimited)")
	concurrency := flag.Int("concurrency", 4, "closed loop: client count")
	archs := flag.String("archs", "x86,hmc,hive,hipe", "comma list of architectures in the mix; \"auto\" routes each request to the predicted-fastest backend")
	aggregate := flag.Bool("aggregate", false, "upgrade HIPE requests to in-memory Q06 aggregation")
	clustered := flag.Bool("clustered", false, "serve a date-clustered (append-ordered) table — the layout where selectivity-adaptive routing pays off")
	noise := flag.Int("noise", 10, "clustering noise in days (with -clustered)")
	pools := flag.String("pools", "", "comma list of replica-pool architectures (e.g. hipe,hipe,x86): serve through a replicated fleet with queue-aware routing")
	classesFlag := flag.String("classes", "", "admission classes as name:slo_µs:patience_µs triples (needs -pools; patience 0 = never shed)")
	shed := flag.Bool("shed", false, "enable admission control: shed low-patience classes under overload (needs -classes, open mode)")
	faultSeed := flag.Uint64("fault-seed", 7, "fault-injection seed: equal seeds replay the identical fault timeline")
	crashEveryUS := flag.Float64("crash-every-us", 0, "mean up-time between stochastic replica crashes in simulated µs (needs -pools; 0 disables)")
	crashDownUS := flag.Float64("crash-down-us", 0, "mean crash outage duration in simulated µs (needs -crash-every-us)")
	crashesFlag := flag.String("crash", "", "scheduled outages as pool:at_µs:down_µs triples (needs -pools)")
	straggleEveryUS := flag.Float64("straggle-every-us", 0, "mean healthy time between per-shard straggler episodes in simulated µs (needs -pools; 0 disables)")
	straggleForUS := flag.Float64("straggle-for-us", 0, "mean straggler episode duration in simulated µs (needs -straggle-every-us)")
	straggleFactor := flag.Float64("straggle-factor", 0, "service-cycle multiplier during straggler episodes, finite and > 1 (needs -straggle-every-us)")
	stallEveryUS := flag.Float64("stall-every-us", 0, "mean quiet time between per-shard transient stalls in simulated µs (needs -pools; 0 disables)")
	stallForUS := flag.Float64("stall-for-us", 0, "mean stall duration in simulated µs (needs -stall-every-us)")
	stallMaxUS := flag.Float64("stall-max-us", 0, "hard per-stall duration bound in simulated µs (0 = 4x -stall-for-us)")
	retries := flag.Int("retries", 0, "per-request retry budget after a failed attempt (needs -pools)")
	retryBackoffUS := flag.Float64("retry-backoff-us", 0, "delay before the first retry in simulated µs, doubling per retry (needs -retries)")
	retryBackoffCapUS := flag.Float64("retry-backoff-cap-us", 0, "backoff doubling cap in simulated µs (0 = uncapped; needs -retries)")
	timeoutUS := flag.Float64("timeout-us", 0, "per-attempt timeout in simulated µs, applied to every class (needs -pools; 0 = attempts never time out)")
	hedgeUS := flag.Float64("hedge-us", 0, "hedged-request delay in simulated µs, applied to every class (needs -pools; 0 = no hedging)")
	failover := flag.Bool("failover", false, "health-aware failover routing: exclude down replicas, penalise observed stragglers (needs -pools)")
	adaptive := flag.Bool("adaptive", false, "feedback-driven routing: blend observed replay cycles into the routing estimates, with a deterministic exploration floor (needs -pools)")
	explorePct := flag.Float64("explore-pct", 0, "adaptive exploration floor as a percentage of routed requests, below 100 (0 = the 1% default; needs -adaptive)")
	obsHalfLife := flag.Float64("obs-halflife", 0, "adaptive observation EWMA half-life in samples (0 = the 8-sample default; needs -adaptive)")
	buckets := flag.Int("buckets", 0, "adaptive selectivity-bucket count per (kind, backend) pair, up to 64 (0 = the 8-bucket default; needs -adaptive)")
	adaptSeed := flag.Uint64("adapt-seed", 11, "adaptive exploration-stream seed: equal seeds replay the identical exploration draws")
	traceMode := flag.Bool("trace", false, "open loop: trace-driven non-homogeneous arrivals instead of Poisson")
	tracePeriodUS := flag.Float64("trace-period-us", 0, "diurnal modulation period in simulated µs (needs -trace)")
	traceAmp := flag.Float64("trace-amp", 0, "diurnal amplitude in [0,1) (needs -trace and -trace-period-us)")
	burst := flag.Float64("burst", 0, "burst rate multiplier >= 1 (needs -trace; 0 disables bursts)")
	burstOnUS := flag.Float64("burst-on-us", 0, "mean burst duration in simulated µs (needs -burst)")
	burstOffUS := flag.Float64("burst-off-us", 0, "mean quiet duration in simulated µs (needs -burst)")
	q1every := flag.Int("q1-every", 0, "turn every Nth request into a Q01 grouped aggregation (0 = pure Q06 stream)")
	q1cut := flag.Int("q1-cut", 0, "Q01 shipdate cutoff in days (0 = the TPC-H 90-day default; needs -q1-every)")
	tuples := flag.Int("tuples", 16384, "lineitem row count (multiple of 64)")
	seed := flag.Uint64("seed", 42, "table generator seed")
	streamSeed := flag.Uint64("stream-seed", 1, "request-stream and arrival-process seed")
	execMode := flag.String("exec", "exact", "execution mode: exact replays every shard machine, estimate prices shards with the cost model (see docs/PERFORMANCE.md)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "executor pool size (defaults to GOMAXPROCS); never changes results")
	csvPath := flag.String("csv", "", "write per-request traces as CSV to this path (- for stdout)")
	jsonPath := flag.String("json", "", "write the full report as JSON to this path (- for stdout)")
	counters := flag.Bool("counters", false, "capture machine counters: the summary gains a counters section and the JSON export Counters fields (totals sum each distinct shard simulation once)")
	traceJSON := flag.String("trace-json", "", "record the virtual-time request trace and write Chrome trace_event JSON to this path (- for stdout; load in Perfetto)")
	spansCSV := flag.String("spans-csv", "", "record the virtual-time request trace and write the flat span table as CSV to this path (- for stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the load test to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (snapshotted after the load test) to this path")
	traceOut := flag.String("trace-out", "", "write a runtime execution trace of the load test to this path")
	quiet := flag.Bool("quiet", false, "suppress progress on stderr")
	flag.Usage = usage
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hipe-serve: "+format+"\n\n", args...)
		usage()
		os.Exit(2)
	}
	// Validate every flag combination up front: a malformed run must
	// die with usage, not after minutes of simulation.
	if flag.NArg() > 0 {
		fail("unexpected argument %q (all options are flags)", flag.Arg(0))
	}
	if *shards <= 0 {
		fail("-shards %d must be positive", *shards)
	}
	if *requests <= 0 {
		fail("-requests %d must be positive", *requests)
	}
	if *tuples <= 0 || *tuples%64 != 0 {
		fail("-tuples %d must be a positive multiple of 64", *tuples)
	}
	if *tuples < *shards*64 {
		fail("-shards %d needs at least %d tuples (64 per shard)", *shards, *shards*64)
	}
	if *mode != "open" && *mode != "closed" {
		fail("-mode %q must be open or closed", *mode)
	}
	if *mode == "open" && !(*qps > 0 && !math.IsInf(*qps, 1)) {
		// The negated form also rejects NaN, which compares false
		// against everything and would otherwise sail through a
		// `*qps <= 0` check into the cycle conversion.
		fail("-qps %g must be a positive finite rate", *qps)
	}
	if *mode == "closed" && *concurrency <= 0 {
		fail("-concurrency %d must be positive", *concurrency)
	}
	if *workers <= 0 {
		fail("-workers %d must be positive", *workers)
	}
	if *q1every < 0 {
		fail("-q1-every %d must not be negative", *q1every)
	}
	if *q1cut < 0 || *q1cut >= hipe.ShipDateDays {
		fail("-q1-cut %d outside the generated 0..%d day range", *q1cut, hipe.ShipDateDays-1)
	}
	if *q1cut > 0 && *q1every == 0 {
		fail("-q1-cut %d has no effect without -q1-every", *q1cut)
	}
	if !(*durationMS >= 0) || math.IsInf(*durationMS, 1) {
		fail("-duration-ms %g must be a non-negative finite duration", *durationMS)
	}
	stdoutClaims := 0
	for _, p := range []string{*csvPath, *jsonPath, *traceJSON, *spansCSV} {
		if p == "-" {
			stdoutClaims++
		}
	}
	if stdoutClaims > 1 {
		fail("two exports both claim stdout; pick one")
	}
	if *noise < 0 || *noise > math.MaxInt32 {
		fail("-noise %d must not be negative or exceed %d days", *noise, math.MaxInt32)
	}
	emode, ok := hipe.ParseExecMode(*execMode)
	if !ok {
		fail("unknown exec mode %q (have %s)", *execMode, hipe.ExecModeChoices())
	}
	if emode == hipe.ExecEstimate {
		if *counters {
			fail("-exec estimate cannot produce machine counters (µop-level counters need exact simulation)")
		}
		if *traceJSON != "" || *spansCSV != "" {
			fail("-exec estimate cannot produce machine-replay traces (spans need exact simulation)")
		}
	}
	// Architectures validate against the backend table, so the error
	// message lists exactly the table's backends.
	var mix []hipe.Arch
	for _, s := range strings.Split(*archs, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		a, ok := hipe.ParseArch(s)
		if !ok {
			fail("unknown arch %q (have %s)", s, hipe.ArchChoices())
		}
		mix = append(mix, a)
	}
	if len(mix) == 0 {
		fail("-archs selects no architecture")
	}
	// Fleet flags: replica pools, admission classes, trace arrivals.
	var poolArchs []hipe.Arch
	for _, s := range strings.Split(*pools, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		a, ok := hipe.ParseArch(s)
		if !ok {
			fail("unknown pool arch %q (have %s)", s, hipe.ArchChoices())
		}
		if a == hipe.ArchAuto {
			fail("-pools entries must pin a concrete backend, not auto")
		}
		poolArchs = append(poolArchs, a)
	}
	if len(poolArchs) > 0 {
		// Every fixed architecture in the stream needs a pool to land on.
		for _, a := range mix {
			if a == hipe.ArchAuto {
				continue
			}
			found := false
			for _, p := range poolArchs {
				found = found || p == a
			}
			if !found {
				fail("-archs includes %s but no -pools entry pins it", a)
			}
		}
	}
	classes, err := parseClasses(*classesFlag)
	if err != nil {
		fail("%v", err)
	}
	if len(classes) > 0 && len(poolArchs) == 0 {
		fail("-classes needs -pools (admission control is a fleet feature)")
	}
	if *shed && len(classes) == 0 {
		fail("-shed needs -classes")
	}
	if *shed && *mode != "open" {
		fail("-shed needs -mode open")
	}
	if *traceMode && *mode != "open" {
		fail("-trace needs -mode open")
	}
	if !*traceMode && (*tracePeriodUS != 0 || *traceAmp != 0 || *burst != 0 || *burstOnUS != 0 || *burstOffUS != 0) {
		fail("trace knobs (-trace-period-us, -trace-amp, -burst, -burst-on-us, -burst-off-us) need -trace")
	}
	if *traceAmp < 0 || *traceAmp >= 1 || math.IsNaN(*traceAmp) {
		fail("-trace-amp %g must be in [0, 1)", *traceAmp)
	}
	if *traceAmp > 0 && !(*tracePeriodUS > 0) {
		fail("-trace-amp needs a positive -trace-period-us")
	}
	if *burst != 0 && (!(*burst >= 1) || math.IsInf(*burst, 1)) {
		fail("-burst %g must be a finite multiplier >= 1 (or 0 to disable)", *burst)
	}
	if *burst > 1 && (!(*burstOnUS > 0) || !(*burstOffUS > 0)) {
		fail("-burst needs positive -burst-on-us and -burst-off-us")
	}
	for _, v := range []struct {
		name string
		val  float64
	}{{"-trace-period-us", *tracePeriodUS}, {"-burst-on-us", *burstOnUS}, {"-burst-off-us", *burstOffUS}} {
		if !(v.val >= 0) || math.IsInf(v.val, 1) {
			fail("%s %g must be a non-negative finite duration", v.name, v.val)
		}
	}
	// Fault-injection and recovery flags. The negated comparisons also
	// reject NaN, which compares false against everything and would
	// otherwise sail through into the cycle conversions.
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"-crash-every-us", *crashEveryUS}, {"-crash-down-us", *crashDownUS},
		{"-straggle-every-us", *straggleEveryUS}, {"-straggle-for-us", *straggleForUS},
		{"-stall-every-us", *stallEveryUS}, {"-stall-for-us", *stallForUS}, {"-stall-max-us", *stallMaxUS},
		{"-retry-backoff-us", *retryBackoffUS}, {"-retry-backoff-cap-us", *retryBackoffCapUS},
		{"-timeout-us", *timeoutUS}, {"-hedge-us", *hedgeUS},
	} {
		if !(v.val >= 0) || math.IsInf(v.val, 1) {
			fail("%s %g must be a non-negative finite duration", v.name, v.val)
		}
	}
	if *straggleFactor != 0 && (math.IsNaN(*straggleFactor) || math.IsInf(*straggleFactor, 0) || *straggleFactor <= 1) {
		fail("-straggle-factor %g must be a finite multiplier > 1", *straggleFactor)
	}
	if *retries < 0 {
		fail("-retries %d must not be negative", *retries)
	}
	crashList, err := parseCrashes(*crashesFlag)
	if err != nil {
		fail("%v", err)
	}
	faultOn := *crashEveryUS > 0 || *straggleEveryUS > 0 || *stallEveryUS > 0 || len(crashList) > 0
	recoveryOn := *retries > 0 || *retryBackoffUS > 0 || *retryBackoffCapUS > 0 ||
		*timeoutUS > 0 || *hedgeUS > 0 || *failover
	if (faultOn || recoveryOn) && len(poolArchs) == 0 {
		fail("fault and recovery flags need -pools (fault injection is a fleet feature)")
	}
	for _, c := range crashList {
		if c.Pool >= len(poolArchs) {
			fail("-crash pool %d outside the %d-pool fleet", c.Pool, len(poolArchs))
		}
	}
	if *crashEveryUS > 0 && !(*crashDownUS > 0) {
		fail("-crash-every-us needs a positive -crash-down-us")
	}
	if *crashEveryUS == 0 && *crashDownUS > 0 {
		fail("-crash-down-us has no effect without -crash-every-us")
	}
	if *straggleEveryUS > 0 && (!(*straggleForUS > 0) || *straggleFactor == 0) {
		fail("-straggle-every-us needs -straggle-for-us and -straggle-factor")
	}
	if *straggleEveryUS == 0 && (*straggleForUS > 0 || *straggleFactor != 0) {
		fail("straggler knobs (-straggle-for-us, -straggle-factor) need -straggle-every-us")
	}
	if *stallEveryUS > 0 && !(*stallForUS > 0) {
		fail("-stall-every-us needs a positive -stall-for-us")
	}
	if *stallEveryUS == 0 && (*stallForUS > 0 || *stallMaxUS > 0) {
		fail("stall knobs (-stall-for-us, -stall-max-us) need -stall-every-us")
	}
	if *stallMaxUS > 0 && *stallMaxUS < *stallForUS {
		fail("-stall-max-us %g below -stall-for-us %g", *stallMaxUS, *stallForUS)
	}
	if (*retryBackoffUS > 0 || *retryBackoffCapUS > 0) && *retries == 0 {
		fail("retry backoff needs a positive -retries budget")
	}
	if *retryBackoffCapUS > 0 && *retryBackoffCapUS < *retryBackoffUS {
		fail("-retry-backoff-cap-us %g below -retry-backoff-us %g", *retryBackoffCapUS, *retryBackoffUS)
	}
	// Adaptive-routing flags. The knob ranges mirror AdaptiveSpec's
	// validation so a bad value dies here with the flag's name.
	if *adaptive && len(poolArchs) == 0 {
		fail("-adaptive needs -pools (feedback-driven routing is a fleet feature)")
	}
	if !*adaptive && (*explorePct != 0 || *obsHalfLife != 0 || *buckets != 0) {
		fail("adaptive knobs (-explore-pct, -obs-halflife, -buckets) need -adaptive")
	}
	if *explorePct < 0 || *explorePct >= 100 || math.IsNaN(*explorePct) {
		fail("-explore-pct %g must be in [0, 100)", *explorePct)
	}
	if !(*obsHalfLife >= 0) || math.IsInf(*obsHalfLife, 1) {
		fail("-obs-halflife %g must be a non-negative finite sample count", *obsHalfLife)
	}
	if *buckets < 0 || *buckets > hipe.MaxAdaptiveBuckets {
		fail("-buckets %d outside 0..%d", *buckets, hipe.MaxAdaptiveBuckets)
	}

	cfg := hipe.Default()
	cfg.Tuples, cfg.Seed = *tuples, *seed
	var tab *hipe.Lineitem
	if *clustered {
		tab = hipe.GenerateClustered(cfg.Tuples, cfg.Seed, int32(*noise))
	} else {
		tab = hipe.Generate(cfg.Tuples, cfg.Seed)
	}
	var cluster *hipe.Cluster
	var fleet *hipe.Fleet
	if len(poolArchs) > 0 {
		fleet, err = hipe.ServeFleet(cfg, tab, *shards, poolArchs)
		if err == nil {
			cluster = fleet.Cluster
		}
	} else {
		cluster, err = hipe.Serve(cfg, tab, *shards)
	}
	if err != nil {
		log.Fatal(err)
	}
	q1 := hipe.Q01{ShipCut: int32(*q1cut)}
	if *q1cut == 0 {
		q1 = hipe.DefaultQ01()
	}
	reqs, err := hipe.StreamSpec{
		N: *requests, Seed: *streamSeed, Archs: mix, Aggregate: *aggregate,
		Q1Every: *q1every, Q1Query: q1, Classes: len(classes),
	}.Requests()
	if err != nil {
		log.Fatal(err)
	}

	var spec hipe.LoadSpec
	if *mode == "open" {
		mean := uint64(hipe.NominalHz / *qps)
		if mean == 0 {
			mean = 1
		}
		duration := uint64(*durationMS / 1e3 * hipe.NominalHz)
		// Decorrelate the arrival process from the request stream: both
		// draw one RNG value per request, so sharing the seed would tie
		// each request's selectivity to its interarrival gap.
		arrivalSeed := *streamSeed ^ 0xA5A5_5A5A_0F0F_F0F0
		if *traceMode {
			spec = hipe.TraceLoop(reqs, hipe.TraceSpec{
				Mean:          mean,
				DiurnalPeriod: usToCycles(*tracePeriodUS),
				DiurnalAmp:    *traceAmp,
				BurstFactor:   *burst,
				BurstOn:       usToCycles(*burstOnUS),
				BurstOff:      usToCycles(*burstOffUS),
			}, duration, arrivalSeed)
		} else {
			spec = hipe.OpenLoop(reqs, mean, duration, arrivalSeed)
		}
	} else {
		spec = hipe.ClosedLoop(reqs, *concurrency)
	}
	spec.Classes = classes
	spec.Shed = *shed
	// Per-class recovery knobs apply uniformly from the CLI; a classless
	// run gets the synthesized default class to hang them on.
	if *timeoutUS > 0 || *hedgeUS > 0 {
		if len(spec.Classes) == 0 {
			spec.Classes = []hipe.ClassSpec{{Name: "default"}}
		}
		for i := range spec.Classes {
			spec.Classes[i].TimeoutCycles = faultCycles(*timeoutUS)
			spec.Classes[i].HedgeCycles = faultCycles(*hedgeUS)
		}
	}
	if faultOn {
		spec.Faults = &hipe.FaultSpec{
			Seed:           *faultSeed,
			CrashEvery:     faultCycles(*crashEveryUS),
			CrashDown:      faultCycles(*crashDownUS),
			StraggleEvery:  faultCycles(*straggleEveryUS),
			StraggleFor:    faultCycles(*straggleForUS),
			StraggleFactor: *straggleFactor,
			StallEvery:     faultCycles(*stallEveryUS),
			StallFor:       faultCycles(*stallForUS),
			StallMax:       faultCycles(*stallMaxUS),
			Crashes:        crashList,
		}
	}
	if *adaptive {
		spec.Adaptive = &hipe.AdaptiveSpec{
			Buckets:    *buckets,
			HalfLife:   *obsHalfLife,
			ExplorePct: *explorePct,
			Seed:       *adaptSeed,
		}
	}
	if recoveryOn {
		spec.Recovery = &hipe.RecoverySpec{
			MaxRetries:       *retries,
			BackoffCycles:    faultCycles(*retryBackoffUS),
			BackoffCapCycles: faultCycles(*retryBackoffCapUS),
			Hedge:            *hedgeUS > 0,
			Failover:         *failover,
		}
	}

	opt := hipe.ServeOptions{
		Workers:  *workers,
		Counters: *counters,
		Exec:     emode,
		// The span exporters are the only consumers of the virtual-time
		// trace, so asking for either turns the tracer on.
		Trace: *traceJSON != "" || *spansCSV != "",
	}
	if !*quiet {
		opt.OnTask = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rhipe-serve: %d/%d shard tasks", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	// The profiling hooks cover exactly the load test — setup (table
	// generation, shard build) stays out of the profiles.
	prof := &hipe.Profile{CPUPath: *cpuprofile, MemPath: *memprofile, TracePath: *traceOut}
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	var report *hipe.LoadReport
	if fleet != nil {
		report, err = fleet.LoadTest(spec, opt)
	} else {
		report, err = hipe.LoadTest(cluster, spec, opt)
	}
	elapsed := time.Since(start)
	if perr := prof.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		log.Fatal(err)
	}

	// An export aimed at stdout owns it; the summary would corrupt the
	// piped CSV/JSON.
	if stdoutClaims == 0 {
		fmt.Print(report.Summary())
		fmt.Printf("\n%d requests served in %v wall clock (%d workers)\n",
			report.Completed, elapsed.Round(time.Millisecond), opt.EffectiveWorkers())
	}
	if *csvPath != "" {
		cliutil.WriteExport(*csvPath, report.WriteCSV)
	}
	if *jsonPath != "" {
		cliutil.WriteExport(*jsonPath, report.WriteJSON)
	}
	if *traceJSON != "" {
		cliutil.WriteExport(*traceJSON, report.WriteChromeTrace)
	}
	if *spansCSV != "" {
		cliutil.WriteExport(*spansCSV, report.WriteSpanCSV)
	}
}

// usToCycles converts simulated microseconds to cycles at the nominal
// 2 GHz clock.
func usToCycles(us float64) uint64 {
	return uint64(us / 1e6 * hipe.NominalHz)
}

// faultCycles converts a positive fault/recovery duration to cycles,
// never rounding a positive flag down to the disabled zero value.
func faultCycles(us float64) uint64 {
	if us <= 0 {
		return 0
	}
	if c := usToCycles(us); c > 0 {
		return c
	}
	return 1
}

// parseCrashes parses the -crash grammar: comma-separated
// pool:at_µs:down_µs triples, durations at the nominal clock.
func parseCrashes(s string) ([]hipe.FaultCrash, error) {
	var out []hipe.FaultCrash
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("-crash entry %q is not pool:at_µs:down_µs", part)
		}
		pool, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil || pool < 0 {
			return nil, fmt.Errorf("-crash entry %q: bad pool %q", part, fields[0])
		}
		at, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil || !(at >= 0) || math.IsInf(at, 1) {
			return nil, fmt.Errorf("-crash entry %q: bad start %q (µs, non-negative)", part, fields[1])
		}
		down, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err != nil || !(down > 0) || math.IsInf(down, 1) {
			return nil, fmt.Errorf("-crash entry %q: bad outage %q (µs, positive)", part, fields[2])
		}
		out = append(out, hipe.FaultCrash{Pool: pool, At: usToCycles(at), Down: faultCycles(down)})
	}
	return out, nil
}

// parseClasses parses the -classes grammar: comma-separated
// name:slo_µs:patience_µs triples, durations at the nominal clock.
func parseClasses(s string) ([]hipe.ClassSpec, error) {
	var out []hipe.ClassSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("-classes entry %q is not name:slo_µs:patience_µs", part)
		}
		name := strings.TrimSpace(fields[0])
		if name == "" {
			return nil, fmt.Errorf("-classes entry %q has no name", part)
		}
		slo, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil || !(slo >= 0) || math.IsInf(slo, 1) {
			return nil, fmt.Errorf("-classes entry %q: bad SLO %q (µs, non-negative)", part, fields[1])
		}
		pat, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err != nil || !(pat >= 0) || math.IsInf(pat, 1) {
			return nil, fmt.Errorf("-classes entry %q: bad patience %q (µs, non-negative)", part, fields[2])
		}
		out = append(out, hipe.ClassSpec{
			Name: name, SLOCycles: usToCycles(slo), PatienceCycles: usToCycles(pat),
		})
	}
	return out, nil
}
