// The serving replay: the one load-test driver under Cluster.LoadTest
// and Fleet.LoadTest. A Cluster is a one-pool fleet whose pool runs
// every backend and whose requests arrive routed — each
// request's single candidate is its admission-resolved plan, and its
// routing decision is the static one made at admission. A Fleet's
// requests carry one candidate per replica pool that can serve them and
// are ranked at every dispatch against the pools' live backlog.
//
// The split that keeps load tests deterministic: the executor pool
// (real goroutines) only computes service times, indexed by (plan,
// shard); the timeline — arrivals, admission, per-shard FIFO queues,
// faults and recovery, completions — is then replayed single-threaded
// in virtual simulated cycles. Reports are therefore byte-identical at
// any worker count.
package serve

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/fault"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// candidate is one routable (replica pool, plan) pair with its cached
// cost estimate. loadTest numbers it before the replay: slot is the
// plan's index among the load test's distinct plans (byPlan, planResp),
// list its candidate list's index among a fleet's distinct lists
// (replay.lists), and numbered marks both as set.
type candidate struct {
	pool     int
	plan     query.Plan
	est      cost.Estimate
	sel      float64
	slot     int
	list     int
	numbered bool
}

// admitFunc expands one request into its routable candidates under a
// cost-model snapshot, in pool order, plus the static routing decision
// made at admission (nil when the request is routed at dispatch, or
// needs no routing): Cluster.admit and Fleet.admit. Requests may share
// one candidate list; loadTest numbers it once and the replay only
// reads it.
type admitFunc func(Request, cost.Params) ([]candidate, *cost.Decision, error)

// admitOnce wraps admit for one load test so that each distinct request
// plan is admitted once: a request's candidates and static decision are
// pure functions of its whole plan under the load test's one snapshot,
// so the requests of one plan share one candidate list and one
// decision, and the load test allocates none per request. The memo is
// keyed by the plan alone because loadTest checks each request's class
// itself. It stays outside loadTest so that tests can run the same
// replay with the bare admit as the per-request reference.
func admitOnce(admit admitFunc) admitFunc {
	type admission struct {
		cands []candidate
		d     *cost.Decision
	}
	memo := make(map[query.Plan]admission)
	return func(req Request, pr cost.Params) ([]candidate, *cost.Decision, error) {
		if a, ok := memo[req.Plan]; ok {
			return a.cands, a.d, nil
		}
		cands, d, err := admit(req, pr)
		if err == nil {
			memo[req.Plan] = admission{cands, d}
		}
		return cands, d, err
	}
}

// loadTest runs spec over the cluster's shards with cost-model snapshot
// pr, the one admit routes with. pools names a fleet's replica pools;
// nil makes the run a single-replica cluster report. It admits the
// whole stream, computes every distinct candidate plan's (plan, shard)
// service times once on the bounded executor pool, verifies each plan's
// merged answer against the unsharded reference evaluator, and replays
// the timeline.
func (c *Cluster) loadTest(spec LoadSpec, opt Options, pr cost.Params, pools []query.Arch, admit admitFunc) (*Report, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	classes := spec.Classes
	if len(classes) == 0 {
		classes = []ClassSpec{{Name: "default"}}
	}
	cands := make([][]candidate, len(spec.Requests))
	static := make([]*cost.Decision, len(spec.Requests))
	for i, req := range spec.Requests {
		if req.Class < 0 || req.Class >= len(classes) {
			return nil, fmt.Errorf("serve: request %d: class %d outside the %d declared classes",
				i, req.Class, len(classes))
		}
		cs, d, err := admit(req, pr)
		if err != nil {
			return nil, fmt.Errorf("serve: request %d: %w", i, err)
		}
		cands[i], static[i] = cs, d
	}

	// Open loop fixes the issued set (and arrival times) up front;
	// closed loop issues every request.
	reqs := spec.Requests
	var arrivals []uint64
	if spec.Mode == Open {
		arrivals = spec.arrivals()
		reqs, cands = reqs[:len(arrivals)], cands[:len(arrivals)]
		if len(reqs) == 0 {
			return nil, fmt.Errorf("serve: no request arrives inside %d cycles", spec.DurationCycles)
		}
	}

	// Compute stage: every distinct candidate plan, first-occurrence
	// order, each (plan, shard) simulated exactly once; merge + verify
	// once per plan. Numbering each candidate with its plan's slot spares
	// the replay a plan hash per request; a list shared by several
	// requests is numbered at the first of them. A fleet, whose replay
	// ranks every request, also gets each list's estimates here, once:
	// every decision over the whole list keeps that one slice.
	planIndex := make(map[query.Plan]int)
	var plans []query.Plan
	var lists [][]cost.Estimate
	for _, cs := range cands {
		if cs[0].numbered {
			continue
		}
		var ests []cost.Estimate
		if pools != nil {
			ests = make([]cost.Estimate, len(cs))
			lists = append(lists, ests)
		}
		for j := range cs {
			slot, ok := planIndex[cs[j].plan]
			if !ok {
				slot = len(plans)
				planIndex[cs[j].plan] = slot
				plans = append(plans, cs[j].plan)
			}
			cs[j].slot, cs[j].list, cs[j].numbered = slot, len(lists)-1, true
			if ests != nil {
				ests[j] = cs[j].est
			}
		}
	}
	byPlan, err := c.runPlanSet(plans, opt, pr)
	if err != nil {
		return nil, err
	}
	planResp := make([]*Response, len(plans))
	for pi, p := range plans {
		resp, err := c.merge(Request{Plan: p}, byPlan[pi])
		if err != nil {
			return nil, fmt.Errorf("serve: plan %s: %w", p, err)
		}
		planResp[pi] = resp
	}

	r := &Report{
		Mode:     spec.Mode.String(),
		Shards:   len(c.shards),
		Rows:     c.whole.N,
		Offered:  len(spec.Requests),
		Requests: make([]RequestTrace, 0, len(reqs)),
	}
	if opt.Exec == sweep.ExecEstimate {
		r.ExecMode = opt.Exec.String()
	}
	// The counter total sums each distinct (plan, shard) simulation once
	// — requests and replica pools share the memoised runs, so summing
	// per request would double-count them.
	if opt.Counters {
		r.Counters = sumPlanCounters(byPlan)
	}
	for i, a := range pools {
		r.Pools = append(r.Pools, PoolStats{Pool: i, Arch: a.String()})
	}
	nPools := max(1, len(pools))
	rp := &replay{
		c:        c,
		report:   r,
		pools:    pools,
		classes:  classes,
		accums:   newClassAccums(classes),
		shed:     spec.Shed,
		static:   static,
		byPlan:   byPlan,
		planResp: planResp,
		lists:    lists,
		free:     make([][]uint64, nPools),
		lanes:    make([][]ShardStats, nPools),
		slow:     make([]float64, nPools),
		done:     make([]bool, len(c.shards)),
		rec:      spec.Recovery,
	}
	for p := range nPools {
		rp.free[p] = make([]uint64, len(c.shards))
		rp.lanes[p] = newShardStats(len(c.shards))
		rp.slow[p] = 1
	}
	if spec.Faults != nil {
		if rp.inj, err = fault.New(*spec.Faults, nPools, len(c.shards)); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	// Fault injection or a recovery policy makes the report a faulted
	// one: recovery columns, per-attempt spans and class timeouts apply.
	if rp.inj != nil || rp.rec != nil {
		r.Faults = &FaultStats{}
	}
	// Adaptive routing state is built fresh per load test from the spec:
	// the replay is single-threaded, so observations fold in arrival
	// order and the report is byte-identical at any worker count.
	if spec.Adaptive != nil {
		ad, err := cost.NewAdaptive(*spec.Adaptive)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		rp.ad = &router{ad: ad}
	}
	if opt.Trace {
		rp.tr = obs.NewTrace()
		rp.tr.NameProcess(0, "requests")
		for p := range nPools {
			name := "cluster"
			if r.HasFleet() {
				name = fmt.Sprintf("pool %d (%s)", p, pools[p])
			}
			rp.tr.NameProcess(1+p, name)
			for s := range c.shards {
				rp.tr.NameThread(1+p, s, fmt.Sprintf("shard %d", s))
			}
		}
	}

	switch spec.Mode {
	case Open:
		for i := range reqs {
			if _, err := rp.dispatch(i, -1, arrivals[i], reqs[i], cands[i]); err != nil {
				return nil, err
			}
		}
	case Closed:
		concurrency := min(spec.Concurrency, len(reqs))
		clientFree := make([]uint64, concurrency)
		for i := range reqs {
			// The next issue slot is the earliest-free client; arrivals are
			// therefore nondecreasing, which keeps shard FIFO order valid.
			// Ties break on client index, so the replay is deterministic.
			client := 0
			for cl := 1; cl < concurrency; cl++ {
				if clientFree[cl] < clientFree[client] {
					client = cl
				}
			}
			completion, err := rp.dispatch(i, client, clientFree[client], reqs[i], cands[i])
			if err != nil {
				return nil, err
			}
			clientFree[client] = completion
		}
		r.Concurrency = concurrency
	}
	r.Trace = rp.tr
	r.finish(rp.lanes, rp.accums)
	if r.HasFaults() {
		r.Degraded = r.Faults.Degraded
		if opt.Counters {
			r.Counters.Add(r.Faults.recoveryCounters(r.Shed))
		}
	}
	if rp.ad != nil && opt.Counters {
		r.Counters.Add(obs.NewCounters(map[string]uint64{
			"serve.adaptive_routed":       rp.ad.routed,
			"serve.adaptive_explored":     rp.ad.explored,
			"serve.adaptive_observations": rp.ad.observed,
		}))
	}
	return r, nil
}

// sumPlanCounters folds the per-(plan, shard) counter snapshots into
// one total, each distinct simulation counted once.
func sumPlanCounters(byPlan [][]ShardPartial) *obs.Counters {
	total := &obs.Counters{}
	for _, parts := range byPlan {
		for _, p := range parts {
			total.Add(p.Counters)
		}
	}
	return total
}

// replay is the single-threaded virtual-time state of one load test.
type replay struct {
	c      *Cluster
	report *Report
	// pools are a fleet's pinned backends (nil on a cluster, whose one
	// pool runs every backend).
	pools   []query.Arch
	classes []ClassSpec
	accums  []classAccum
	shed    bool
	// static holds each request's admission-time routing decision; a
	// cluster dispatches on it instead of ranking.
	static []*cost.Decision
	// byPlan and planResp are indexed by a candidate's slot, lists (a
	// fleet's candidate-list estimates, read-only) by its list.
	byPlan   [][]ShardPartial
	planResp []*Response
	lists    [][]cost.Estimate
	// buf holds the routing inputs of the ranking in progress.
	buf routeBuf
	// free is each pool's per-shard free time, in virtual cycles — the
	// router's queue-depth signal and the FIFO state; lanes is the
	// matching per-(pool, shard) load accounting.
	free  [][]uint64
	lanes [][]ShardStats
	// tr records the request span tree when tracing is on (nil when off).
	tr *obs.Trace

	// ad is the per-run adaptive routing state (LoadSpec.Adaptive; nil
	// keeps routing static).
	ad *router

	// inj injects the scheduled faults and rec is the recovery policy;
	// both nil on a healthy run. slow is the per-pool observed-slowdown
	// EWMA the failover router penalises stragglers by; done is the
	// per-shard first-completion scratch of coverage accounting.
	inj  *fault.Injector
	rec  *RecoverySpec
	slow []float64
	done []bool
}

// router is one adaptive-routing state: the observation cells, the
// online exploration sequence and the feedback loop's event totals for
// the serve.* counter roll-up. A load-test replay holds one per
// adaptive run; a Cluster holds one under adaptMu for EnableAdaptive's
// online queries. A nil router ranks statically and observes nothing.
type router struct {
	ad *cost.Adaptive
	// seq numbers online routes for the exploration stream; a replay
	// passes request indices instead.
	seq                        int
	routed, explored, observed uint64
}

// routeBuf is reusable storage for one ranking's inputs: the queue
// penalties and health that loads fills, and the blended observations
// that rank fills. cost.RankLoadedHealth copies each of them into the
// decision, so a replay ranks all its requests in one routeBuf. The
// estimates are not among them: the decision keeps its estimate slice.
type routeBuf struct {
	queue  []float64
	health []cost.Health
	obs    []float64
}

// sized returns s resliced to n zeroed elements, reallocated only when
// its capacity falls short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// rank is the one candidate-ranking policy: cost.RankLoadedHealth over
// the candidates' estimates under the given queue penalties and replica
// health (nil: health-blind). With adaptive state each candidate's
// analytic prior is blended with the observed-cycles EWMA of its (kind,
// backend, selectivity bucket) cell, and the deterministic exploration
// floor may override the pick for this request index — never onto a
// down replica, so the draw stays a pure function of (seed, index).
// When every candidate is down the pick falls back to health-blind
// ranking: queue for the earliest recovery. ests holds the candidates'
// estimates in order and becomes the decision's: a ranking of a whole
// candidate list passes the list's shared slice (replay.lists), and nil
// ranks on a fresh one, which a subset of a list needs. buf supplies
// the observation inputs.
func (rt *router) rank(index int, cands []candidate, ests []cost.Estimate, queue []float64, health []cost.Health, buf *routeBuf) (*cost.Decision, error) {
	if ests == nil {
		ests = make([]cost.Estimate, len(cands))
		for i, c := range cands {
			ests[i] = c.est
		}
	}
	var obsCycles []float64
	var samples []uint64
	if rt != nil {
		buf.obs = sized(buf.obs, len(cands))
		obsCycles = buf.obs
		// The decision keeps the sample counts without a copy.
		samples = make([]uint64, len(cands))
	}
	if rt != nil {
		for i, c := range cands {
			blended, _, n := rt.ad.Blended(c.plan.Kind, c.plan.Arch, c.sel, c.est.Cycles)
			if n > 0 {
				obsCycles[i] = blended
			}
			samples[i] = n
		}
	}
	d, err := cost.RankLoadedHealth(cands[0].sel, ests, queue, health, obsCycles)
	if errors.Is(err, cost.ErrAllDown) {
		d, err = cost.RankLoadedHealth(cands[0].sel, ests, queue, nil, obsCycles)
	}
	if err != nil {
		return nil, err
	}
	if rt != nil {
		d.BucketSamples = samples
		if j, ok := rt.ad.ExplorePick(index, len(cands)); ok && (health == nil || !health[j].Down) {
			d.ChosenIndex, d.Chosen, d.Explored = j, d.Estimates[j].Plan, true
		}
		rt.routed++
		if d.Explored {
			rt.explored++
		}
	}
	return d, nil
}

// rankNext ranks one online query's candidates as on an idle fleet —
// no queue penalties, health-blind — under the next sequence number.
func (rt *router) rankNext(cands []candidate) (*cost.Decision, error) {
	index := 0
	if rt != nil {
		index = rt.seq
		rt.seq++
	}
	return rt.rank(index, cands, nil, make([]float64, len(cands)), nil, &routeBuf{})
}

// observe feeds one completed request's service cycles into the cell of
// its plan's (kind, backend) at selectivity sel.
func (rt *router) observe(p query.Plan, sel float64, cycles uint64) {
	if rt != nil {
		rt.ad.Observe(p.Kind, p.Arch, sel, float64(cycles))
		rt.observed++
	}
}

// backlogAt is pool p's booked critical-path backlog at cycle t: the
// worst per-shard excess of free time over t, exclusive of outages.
func (rp *replay) backlogAt(p int, t uint64) uint64 {
	var backlog uint64
	for _, free := range rp.free[p] {
		if free > t && free-t > backlog {
			backlog = free - t
		}
	}
	return backlog
}

// loads snapshots the candidates' routing inputs at cycle t into
// rp.buf: each one's pool backlog as its queue penalty and, under
// failover, its pool's health — with a down pool's outage wait folded
// into its penalty, so the all-down fallback ranks by earliest recovery
// plus backlog. The slices are valid until the next call.
func (rp *replay) loads(cands []candidate, t uint64) ([]float64, []cost.Health) {
	rp.buf.queue = sized(rp.buf.queue, len(cands))
	queue := rp.buf.queue
	var health []cost.Health
	if rp.rec != nil && rp.rec.Failover {
		rp.buf.health = sized(rp.buf.health, len(cands))
		health = rp.buf.health
	}
	for i, c := range cands {
		queue[i] = float64(rp.backlogAt(c.pool, t))
		if health != nil {
			until, down := rp.inj.DownUntil(c.pool, t)
			health[i] = cost.Health{Down: down, Slowdown: rp.slow[c.pool]}
			if down {
				queue[i] += float64(until - t)
			}
		}
	}
	return queue, health
}

// route picks one attempt's candidate at cycle t: a cluster's static
// admission decision, or a fleet's ranking under the pools' live
// backlog and health. It also reports whether the pick failed over
// (skipped at least one down pool).
func (rp *replay) route(index int, cands []candidate, t uint64) (*cost.Decision, candidate, bool, error) {
	if !rp.report.HasFleet() {
		return rp.static[index], cands[0], false, nil
	}
	queue, health := rp.loads(cands, t)
	d, err := rp.ad.rank(index, cands, rp.lists[cands[0].list], queue, health, &rp.buf)
	if err != nil {
		return nil, candidate{}, false, err
	}
	failedOver := false
	if health != nil && !health[d.ChosenIndex].Down {
		for _, h := range health {
			failedOver = failedOver || h.Down
		}
	}
	return d, cands[d.ChosenIndex], failedOver, nil
}

// hedgeCandidate picks the hedge attempt's target: the best-ranked
// candidate on a pool distinct from primary (healthy pools only under
// failover), with no adaptive blending; ok=false when none can serve.
func (rp *replay) hedgeCandidate(cands []candidate, primary int, t uint64) (candidate, bool) {
	others := make([]candidate, 0, len(cands))
	for _, c := range cands {
		if c.pool != primary {
			others = append(others, c)
		}
	}
	if len(others) == 0 {
		return candidate{}, false
	}
	queue, health := rp.loads(others, t)
	// others is a subset of the request's list, so the list's shared
	// estimates do not line up with it: rank on a fresh slice.
	var static *router
	d, err := static.rank(0, others, nil, queue, health, &rp.buf)
	if err != nil || (health != nil && health[d.ChosenIndex].Down) {
		return candidate{}, false
	}
	return others[d.ChosenIndex], true
}

// minBacklog is admission control's load signal: the least queue
// penalty over the candidates that can absorb the request — the healthy
// ones, or every candidate (outage wait included) when all are down.
func minBacklog(queue []float64, health []cost.Health) uint64 {
	best, allBest := -1.0, -1.0
	for i, q := range queue {
		if allBest < 0 || q < allBest {
			allBest = q
		}
		if (health == nil || !health[i].Down) && (best < 0 || q < best) {
			best = q
		}
	}
	if best < 0 {
		best = allBest
	}
	return uint64(best)
}

// dispatch admits, routes and books one arrival on the shard FIFOs and
// returns its completion cycle. A shed request is accounted in the
// report and completes at 0. The attempt loop — class timeout,
// capped-backoff retries, optional hedging — runs until the request
// completes or its retry budget degrades it to a partial result; with
// a nil injector and no recovery policy the first attempt always
// succeeds, so the loop is the healthy path too.
func (rp *replay) dispatch(index, client int, arrival uint64, req Request, cands []candidate) (uint64, error) {
	r := rp.report
	spec := rp.classes[req.Class]
	acc := &rp.accums[req.Class]
	acc.row.Offered++
	// Admission: the class's patience against the least-loaded
	// candidate's booked backlog.
	if rp.shed && spec.PatienceCycles > 0 {
		if backlog := minBacklog(rp.loads(cands, arrival)); backlog > spec.PatienceCycles {
			acc.row.Shed++
			r.Shed++
			r.ShedRequests = append(r.ShedRequests, ShedTrace{
				Index: index, Class: req.Class, Arrival: arrival, QueueCycles: backlog,
			})
			if rp.tr.On() {
				rp.tr.Instant("shed", "admission", 0, 0, arrival,
					obs.Arg{Key: "class", Val: spec.Name},
					obs.Arg{Key: "backlog_cycles", Val: strconv.FormatUint(backlog, 10)})
			}
			return 0, nil
		}
	}

	maxRetries := 0
	var timeout, backoff, backoffCap, hedgeAfter uint64
	if r.HasFaults() {
		timeout = spec.TimeoutCycles
	}
	if rec := rp.rec; rec != nil {
		maxRetries, backoff, backoffCap = rec.MaxRetries, rec.BackoffCycles, rec.BackoffCapCycles
		if rec.Hedge {
			hedgeAfter = spec.HedgeCycles
		}
	}

	clear(rp.done)
	var cov coverage
	var reqName string
	t := arrival
	attempts, hedges := 0, 0
	hedgeWon, degraded := false, false
	var completion uint64
	var chosen candidate
	var d *cost.Decision
	for {
		attempts++
		dec, cand, failedOver, err := rp.route(index, cands, t)
		if err != nil {
			return 0, fmt.Errorf("serve: request %d: %w", index, err)
		}
		chosen, d = cand, dec
		if failedOver {
			r.Faults.Failovers++
			acc.row.Failovers++
		}
		if rp.tr.On() {
			if attempts == 1 {
				reqName = rp.traceBegin(index, arrival, spec.Name, cand)
			}
			if failedOver {
				rp.tr.Instant("failover", "routing", 0, 0, t,
					obs.Arg{Key: "pool", Val: strconv.Itoa(cand.pool)})
			}
			rp.traceRoute(t, attempts, d, cand, len(cands))
		}
		primary := rp.runAttempt(reqName, cand, t, timeout, &cov)

		var hedge attemptOutcome
		if hedgeAfter > 0 && !(primary.success && primary.completion <= t+hedgeAfter) {
			if hc, ok := rp.hedgeCandidate(cands, cand.pool, t+hedgeAfter); ok {
				hedges++
				r.Faults.Hedges++
				acc.row.Hedges++
				if rp.tr.On() {
					rp.tr.Instant("hedge", "recovery", 0, 0, t+hedgeAfter,
						obs.Arg{Key: "pool", Val: strconv.Itoa(hc.pool)})
				}
				hedge = rp.runAttempt(reqName, hc, t+hedgeAfter, timeout, &cov)
			}
		}

		if primary.success || hedge.success {
			completion = primary.completion
			if hedge.success && (!primary.success || hedge.completion < primary.completion) {
				completion = hedge.completion
				chosen = hedge.cand
				hedgeWon = true
				r.Faults.HedgeWins++
				acc.row.HedgeWins++
			}
			break
		}

		failAt := max(primary.resolve, hedge.resolve)
		if attempts-1 >= maxRetries {
			degraded = true
			completion = failAt
			break
		}
		r.Faults.Retries++
		acc.row.Retries++
		t = failAt + backoff
		if rp.tr.On() {
			rp.tr.Instant("retry", "recovery", 0, 0, t,
				obs.Arg{Key: "attempt", Val: strconv.Itoa(attempts + 1)},
				obs.Arg{Key: "backoff_cycles", Val: strconv.FormatUint(backoff, 10)})
		}
		if next := backoff * 2; next > backoff {
			backoff = next
			if backoffCap > 0 && backoff > backoffCap {
				backoff = backoffCap
			}
		}
	}

	resp := rp.planResp[chosen.slot]
	latency := completion - arrival
	covFrac := 1.0
	matches, revenue := resp.Matches, resp.Revenue
	errMatches, errRevenue := 0.0, 0.0
	if degraded {
		r.Faults.Degraded++
		covFrac = float64(cov.rows) / float64(rp.c.whole.N)
		matches, revenue = cov.matches, cov.revenue
		errMatches = relErr(float64(matches), float64(resp.Matches))
		errRevenue = relErr(float64(revenue), float64(resp.Revenue))
		if rp.tr.On() {
			rp.tr.Instant("degraded", "recovery", 0, 0, completion,
				obs.Arg{Key: "coverage", Val: strconv.FormatFloat(covFrac, 'g', -1, 64)})
		}
	}
	acc.observe(latency, degraded, covFrac, errRevenue)
	// Nominal service cycles only: fault-driven inflation stays out of
	// the cells — the slowdown EWMA and health-aware routing carry it —
	// so adaptive state converges on the workload, not on faults.
	rp.ad.observe(chosen.plan, chosen.sel, resp.Cycles)
	if rp.tr.On() {
		rp.tr.Instant("merge", "merge", 0, 0, completion,
			obs.Arg{Key: "matches", Val: strconv.Itoa(matches)})
		args := []obs.Arg{{Key: "latency_cycles", Val: strconv.FormatUint(latency, 10)}}
		if r.HasFaults() {
			args = append(args, obs.Arg{Key: "attempts", Val: strconv.Itoa(attempts)})
		}
		rp.tr.End(reqName, "request", 0, index, completion, args...)
	}
	tr := RequestTrace{
		Index:      index,
		Client:     client,
		Plan:       chosen.plan,
		Routing:    d,
		Arrival:    arrival,
		Completion: completion,
		Latency:    latency,
		Service:    resp.Cycles,
		Work:       resp.WorkCycles,
		Matches:    matches,
		Revenue:    revenue,
	}
	if r.HasFleet() {
		r.Pools[chosen.pool].Requests++
		tr.Class = req.Class
		tr.Pool = &PoolPick{
			Pool: chosen.pool, Arch: rp.pools[chosen.pool].String(),
			QueueCycles: uint64(d.QueueCycles[d.ChosenIndex]), EstCycles: chosen.est.Cycles,
		}
	}
	if r.HasFaults() {
		tr.Attempts, tr.Hedges, tr.HedgeWon, tr.Degraded = attempts, hedges, hedgeWon, degraded
		tr.Coverage, tr.ErrMatches, tr.ErrRevenue = covFrac, errMatches, errRevenue
	}
	r.Requests = append(r.Requests, tr)
	return completion, nil
}

// traceBegin opens request index's async span on the router track (pid
// 0) and returns its name. A faulted run names the request alone — its
// attempts may land on several backends — and every other run adds the
// backend; fleets tag the span with the class, clusters with the arch.
func (rp *replay) traceBegin(index int, arrival uint64, class string, c candidate) string {
	name := fmt.Sprintf("q%d", index)
	if !rp.report.HasFaults() {
		name = fmt.Sprintf("q%d %s", index, c.plan.Arch)
	}
	arg := obs.Arg{Key: "class", Val: class}
	if !rp.report.HasFleet() {
		arg = obs.Arg{Key: "arch", Val: c.plan.Arch.String()}
	}
	rp.tr.Begin(name, "request", 0, index, arrival, arg)
	return name
}

// traceRoute records one attempt's routing instant: a cluster's static
// decision (routed requests only), a fleet pick with its candidate count
// and absorbed backlog, or a faulted run's pick with its attempt number.
func (rp *replay) traceRoute(t uint64, attempt int, d *cost.Decision, c candidate, nCands int) {
	switch {
	case !rp.report.HasFleet():
		if d != nil {
			rp.tr.Instant("route", "routing", 0, 0, t,
				obs.Arg{Key: "chosen", Val: d.Chosen.Arch.String()},
				obs.Arg{Key: "candidates", Val: strconv.Itoa(len(d.Estimates))})
		}
	case rp.report.HasFaults():
		rp.tr.Instant("route", "routing", 0, 0, t,
			obs.Arg{Key: "pool", Val: strconv.Itoa(c.pool)},
			obs.Arg{Key: "arch", Val: rp.pools[c.pool].String()},
			obs.Arg{Key: "attempt", Val: strconv.Itoa(attempt)})
	default:
		rp.tr.Instant("route", "routing", 0, 0, t,
			obs.Arg{Key: "pool", Val: strconv.Itoa(c.pool)},
			obs.Arg{Key: "arch", Val: rp.pools[c.pool].String()},
			obs.Arg{Key: "candidates", Val: strconv.Itoa(nCands)},
			obs.Arg{Key: "queue_cycles", Val: strconv.FormatUint(uint64(d.QueueCycles[d.ChosenIndex]), 10)})
	}
}
