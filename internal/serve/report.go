// Load-test reports and their exporters. Following the sweep engine's
// export conventions: CSV rows in request-index order with
// deterministic number formatting, JSON as one indented document — a
// report's export is byte-stable across runs and executor worker
// counts.
package serve

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
)

// RequestTrace is one served request on the virtual timeline. All
// times are simulated cycles.
type RequestTrace struct {
	// Index is the request's position in the admitted stream.
	Index int
	// Client is the issuing closed-loop client, -1 under open loop.
	Client int
	// Plan is the executed plan — for routed (ArchAuto) requests, the
	// backend the planner chose.
	Plan query.Plan
	// Routing is the planner's decision for an ArchAuto request:
	// profiled selectivity and every candidate backend's estimate. Nil
	// for fixed-architecture requests (and JSON-omitted, so fixed-arch
	// reports are unchanged). Under a fleet it is the router's loaded
	// decision — every candidate (replica, backend) estimate plus the
	// queue penalties in effect at arrival.
	Routing *cost.Decision `json:",omitempty"`
	// Class is the request's admission class (0 when classes are
	// unused); Pool records the fleet router's pick. Both are zero /
	// nil — and JSON-omitted — on single-replica cluster reports.
	Class int       `json:",omitempty"`
	Pool  *PoolPick `json:",omitempty"`
	// Arrival is when the request entered the system.
	Arrival uint64
	// Completion is when the slowest shard task finished.
	Completion uint64
	// Latency is Completion - Arrival: queueing plus service.
	Latency uint64
	// Service is the idle-fleet critical path (slowest shard's cycles).
	Service uint64
	// Work is the total simulated cycles across all shards.
	Work uint64
	// Matches and Revenue are the merged, verified answers. On a
	// degraded request they are the partial sums over the shards that
	// completed.
	Matches int
	Revenue int64
	// Recovery accounting, set only by faulted/recovering replays and
	// JSON-omitted otherwise, so fault-free reports are byte-identical
	// to their pre-fault form. Attempts counts the dispatches (1 =
	// first try succeeded); Hedges the hedged second attempts; HedgeWon
	// whether a hedge supplied the winning completion.
	Attempts int  `json:",omitempty"`
	Hedges   int  `json:",omitempty"`
	HedgeWon bool `json:",omitempty"`
	// Degraded marks a partial answer after the retry budget ran out;
	// Coverage is the exact fraction of table rows scanned (1 when not
	// degraded); ErrMatches and ErrRevenue the relative errors of the
	// partial answer against the reference evaluator's exact one.
	Degraded   bool    `json:",omitempty"`
	Coverage   float64 `json:",omitempty"`
	ErrMatches float64 `json:",omitempty"`
	ErrRevenue float64 `json:",omitempty"`
}

// ShardStats is one shard's load accounting over a test.
type ShardStats struct {
	Shard int
	// Tasks is the number of shard tasks served.
	Tasks int
	// BusyCycles is the total simulated service time.
	BusyCycles uint64
	// Utilisation is BusyCycles over the test makespan.
	Utilisation float64
}

// PoolPick records the fleet router's choice for one request.
type PoolPick struct {
	// Pool is the chosen replica pool's index; Arch names its pinned
	// backend family.
	Pool int
	Arch string
	// QueueCycles is the chosen replica's backlog (critical-path
	// queueing delay) at arrival.
	QueueCycles uint64
	// EstCycles is the cost model's predicted critical path on the
	// chosen (replica, backend) pair.
	EstCycles float64
}

// PoolStats is one replica pool's load accounting over a fleet test.
type PoolStats struct {
	// Pool is the pool index; Arch names its pinned backend family.
	Pool int
	Arch string
	// Requests counts the requests routed to the pool; Tasks its shard
	// tasks; BusyCycles the total simulated service time across its
	// shards.
	Requests   int
	Tasks      int
	BusyCycles uint64
	// Utilisation is BusyCycles over (makespan x shards) — the pool's
	// mean per-shard busy fraction.
	Utilisation float64
}

// Report is the outcome of one load test.
type Report struct {
	// Mode is "open" or "closed".
	Mode string
	// ExecMode is "estimate" when the test priced shard service times
	// with the analytic cost model instead of machine simulation
	// (answers stay exact; only timing is approximate). Empty — and
	// JSON-omitted — on exact reports, so they are byte-identical to
	// their pre-mode form. Exported CSV rows gain an exec_mode column
	// only when this is set.
	ExecMode string `json:",omitempty"`
	// Shards is the fleet size; Rows the whole-table row count.
	Shards int
	Rows   int
	// Concurrency is the closed-loop client count (0 under open loop).
	Concurrency int
	// Offered is the generated request count; Completed the admitted
	// and served count (open-loop duration bounds can drop the tail).
	Offered   int
	Completed int
	// MakespanCycles is the completion time of the last request.
	MakespanCycles uint64
	// ThroughputRPMC is completed requests per million simulated cycles.
	ThroughputRPMC float64
	// Latency quantiles over all completed requests, in simulated
	// cycles, from the streaming log-bucket histogram.
	LatencyP50  uint64
	LatencyP95  uint64
	LatencyP99  uint64
	LatencyMean float64
	LatencyMax  uint64
	// PerShard is the per-shard utilisation accounting, in shard order.
	// Fleet reports leave it nil (per-shard accounting lives under
	// Pools) — omitted from JSON so either shape stays clean.
	PerShard []ShardStats `json:",omitempty"`
	// Fleet-only fields, all empty — and JSON-omitted — on
	// single-replica cluster reports.
	// Pools is the per-replica-pool accounting, in pool order.
	Pools []PoolStats `json:",omitempty"`
	// Classes is the per-admission-class accounting — offered / shed /
	// completed counts, latency quantiles and exact SLO attainment — in
	// class order.
	Classes []ClassStats `json:",omitempty"`
	// Shed is the total request count admission control refused;
	// ShedRequests are their traces, in arrival order.
	Shed         int         `json:",omitempty"`
	ShedRequests []ShedTrace `json:",omitempty"`
	// Degraded is the total request count answered with a partial
	// result, and Faults the fault-event and recovery-action totals.
	// Both set only by faulted/recovering load tests (Faults non-nil is
	// the marker) and JSON-omitted otherwise.
	Degraded int         `json:",omitempty"`
	Faults   *FaultStats `json:",omitempty"`
	// Counters is the machine-counter total over the test — every
	// distinct (plan, shard) simulation summed exactly once — when
	// Options.Counters was set; nil (and JSON-omitted) otherwise, so
	// counter-off reports are byte-identical to their pre-observability
	// form.
	Counters *obs.Counters `json:",omitempty"`
	// Trace is the virtual-time span timeline when Options.Trace was
	// set; nil otherwise. It exports through WriteChromeTrace and
	// WriteSpanCSV, not the report JSON (spans repeat everything the
	// request traces carry).
	Trace *obs.Trace `json:"-"`
	// Requests are the per-request traces, in issue order.
	Requests []RequestTrace
}

// CSVHeader is the column layout of WriteCSV: one row per request.
// Reports containing routed (ArchAuto) requests append the
// routing-decision columns of RoutingCSVHeader, so fixed-architecture
// exports stay byte-identical to their pre-planner form.
var CSVHeader = []string{
	"index", "client", "arch", "strategy", "opsize_b", "unroll", "fused", "aggregate",
	"ship_lo", "ship_hi", "disc_lo", "disc_hi", "qty_hi",
	"arrival_cycles", "completion_cycles", "latency_cycles",
	"service_cycles", "work_cycles", "matches", "revenue",
}

// RoutingCSVHeader returns the routing-decision columns appended for
// reports with routed requests: the routed flag, the profiled
// selectivity, and one estimated-cycles column per backend
// — the full audit trail of each pick.
func RoutingCSVHeader() []string {
	cols := []string{"routed", "est_selectivity"}
	for _, name := range query.BackendNames() {
		cols = append(cols, "est_"+name+"_cycles")
	}
	return cols
}

// FleetCSVHeader returns the columns appended for fleet reports: the
// request's class, the routed (pool, backend) pair, the backlog the
// pick absorbed, and the class's SLO bound plus whether this request
// met it.
func FleetCSVHeader() []string {
	return []string{"class", "pool", "pool_arch", "queue_cycles", "slo_cycles", "slo_met"}
}

// FaultCSVHeader returns the columns appended for faulted/recovering
// reports: the request's attempt and hedge counts, whether it
// degraded, and the partial answer's coverage and relative errors.
func FaultCSVHeader() []string {
	return []string{"attempts", "hedges", "degraded", "coverage", "err_matches", "err_revenue"}
}

// AdaptiveCSVHeader returns the columns appended for adaptive-routing
// reports: the pick's route mode ("adaptive", or "static" for rows the
// feedback router never saw), the chosen candidate's blended observed
// cycles (blank while its bucket was cold), its bucket's sample count,
// and whether the exploration floor overrode the pick.
func AdaptiveCSVHeader() []string {
	return []string{"route_mode", "obs_cycles", "bucket_samples", "explored"}
}

// HasFaults reports whether the report came from a faulted/recovering
// load test.
func (r *Report) HasFaults() bool { return r.Faults != nil }

// HasAdaptive reports whether any request in the report was routed
// with observed-cycles feedback.
func (r *Report) HasAdaptive() bool {
	for i := range r.Requests {
		if d := r.Requests[i].Routing; d != nil && d.RouteMode != "" {
			return true
		}
	}
	return false
}

// adaptiveTotals counts the adaptively routed and explored requests.
func (r *Report) adaptiveTotals() (routed, explored int) {
	for i := range r.Requests {
		if d := r.Requests[i].Routing; d != nil && d.RouteMode != "" {
			routed++
			if d.Explored {
				explored++
			}
		}
	}
	return routed, explored
}

// HasRouting reports whether any request in the report was routed by
// the adaptive planner.
func (r *Report) HasRouting() bool {
	for _, tr := range r.Requests {
		if tr.Routing != nil {
			return true
		}
	}
	return false
}

// HasFleet reports whether the report came from a replicated fleet.
func (r *Report) HasFleet() bool {
	return len(r.Pools) > 0
}

// WriteCSV writes the per-request traces as CSV with CSVHeader's
// columns (plus FleetCSVHeader for fleet reports, plus FaultCSVHeader
// for faulted runs, plus RoutingCSVHeader when the report contains
// routed requests, plus AdaptiveCSVHeader when any pick blended
// observed cycles, plus an exec_mode column for estimate-mode reports
// — in that order), in request-index order. Pre-fleet, exact,
// fixed-architecture exports stay byte-identical to their original
// form, and adaptive-off exports to their pre-adaptive form.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	routed := r.HasRouting()
	fleet := r.HasFleet()
	faults := r.HasFaults()
	adaptive := r.HasAdaptive()
	header := CSVHeader
	backends := query.Backends()
	if fleet || routed || faults || adaptive || r.ExecMode != "" {
		header = append([]string{}, CSVHeader...)
		if fleet {
			header = append(header, FleetCSVHeader()...)
		}
		if faults {
			header = append(header, FaultCSVHeader()...)
		}
		if routed {
			header = append(header, RoutingCSVHeader()...)
		}
		if adaptive {
			header = append(header, AdaptiveCSVHeader()...)
		}
		if r.ExecMode != "" {
			header = append(header, "exec_mode")
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	// csv.Writer.Write copies a record's fields out before it returns,
	// so one record slice serves every row.
	var rec []string
	for _, tr := range r.Requests {
		p, q := tr.Plan, tr.Plan.Q
		if p.Kind == query.Q1Agg {
			// Aggregation rows render their filter in the shared date
			// columns ([0, ShipCut] as a half-open range); the zero
			// discount/quantity bounds mark the row as Q01, keeping the
			// schema — and Q06-only exports — byte-stable.
			q = db.Q06{ShipLo: 0, ShipHi: p.Q1.ShipCut + 1}
		}
		rec = append(rec[:0],
			strconv.Itoa(tr.Index),
			strconv.Itoa(tr.Client),
			p.Arch.String(),
			p.Strategy.String(),
			strconv.FormatUint(uint64(p.OpSize), 10),
			strconv.Itoa(p.Unroll),
			strconv.FormatBool(p.Fused),
			strconv.FormatBool(p.Aggregate),
			strconv.FormatInt(int64(q.ShipLo), 10),
			strconv.FormatInt(int64(q.ShipHi), 10),
			strconv.FormatInt(int64(q.DiscLo), 10),
			strconv.FormatInt(int64(q.DiscHi), 10),
			strconv.FormatInt(int64(q.QtyHi), 10),
			strconv.FormatUint(tr.Arrival, 10),
			strconv.FormatUint(tr.Completion, 10),
			strconv.FormatUint(tr.Latency, 10),
			strconv.FormatUint(tr.Service, 10),
			strconv.FormatUint(tr.Work, 10),
			strconv.Itoa(tr.Matches),
			strconv.FormatInt(tr.Revenue, 10),
		)
		if fleet {
			rec = r.appendFleetColumns(rec, &tr)
		}
		if faults {
			rec = appendFaultColumns(rec, &tr)
		}
		if routed {
			rec = appendRoutingColumns(rec, tr.Routing, backends)
		}
		if adaptive {
			rec = appendAdaptiveColumns(rec, tr.Routing)
		}
		if r.ExecMode != "" {
			rec = append(rec, r.ExecMode)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// appendFleetColumns appends one trace's fleet cells to rec. The
// slo_met cell is blank for classes without an SLO, "true"/"false"
// otherwise.
func (r *Report) appendFleetColumns(rec []string, tr *RequestTrace) []string {
	pool, arch, queue := "", "", ""
	if tr.Pool != nil {
		pool = strconv.Itoa(tr.Pool.Pool)
		arch = tr.Pool.Arch
		queue = strconv.FormatUint(tr.Pool.QueueCycles, 10)
	}
	slo, met := "", ""
	if tr.Class >= 0 && tr.Class < len(r.Classes) {
		if bound := r.Classes[tr.Class].SLOCycles; bound > 0 {
			slo = strconv.FormatUint(bound, 10)
			// A degraded answer misses its SLO however fast the fleet gave
			// up; Degraded is always false on fault-free reports, so their
			// cells are unchanged.
			met = strconv.FormatBool(!tr.Degraded && tr.Latency <= bound)
		}
	}
	return append(rec, strconv.Itoa(tr.Class), pool, arch, queue, slo, met)
}

// appendFaultColumns appends one trace's recovery cells to rec.
func appendFaultColumns(rec []string, tr *RequestTrace) []string {
	return append(rec,
		strconv.Itoa(tr.Attempts),
		strconv.Itoa(tr.Hedges),
		strconv.FormatBool(tr.Degraded),
		strconv.FormatFloat(tr.Coverage, 'g', -1, 64),
		strconv.FormatFloat(tr.ErrMatches, 'g', -1, 64),
		strconv.FormatFloat(tr.ErrRevenue, 'g', -1, 64),
	)
}

// appendRoutingColumns appends one trace's routing-decision cells to
// rec: empty estimates for fixed-architecture rows in a mixed stream,
// whole-cycle estimates (formatCycles) for routed rows.
func appendRoutingColumns(rec []string, d *cost.Decision, backends []query.Backend) []string {
	if d == nil {
		rec = append(rec, "false", "")
		for range backends {
			rec = append(rec, "")
		}
		return rec
	}
	rec = append(rec, "true", strconv.FormatFloat(d.Selectivity, 'g', -1, 64))
	for _, b := range backends {
		if est := d.EstimateFor(b.Arch()); est != nil {
			rec = append(rec, formatCycles(est.Cycles))
		} else {
			rec = append(rec, "")
		}
	}
	return rec
}

// appendAdaptiveColumns appends one trace's adaptive-routing cells to
// rec. Rows the feedback router never saw — fixed-architecture requests
// in a mixed stream, or static decisions — read "static" with blank
// provenance.
func appendAdaptiveColumns(rec []string, d *cost.Decision) []string {
	if d == nil || d.RouteMode == "" {
		return append(rec, "static", "", "", "")
	}
	obsCell, samplesCell := "", ""
	if d.ChosenIndex >= 0 && d.ChosenIndex < len(d.ObsCycles) {
		if v := d.ObsCycles[d.ChosenIndex]; v > 0 {
			obsCell = formatCycles(v)
		}
	}
	if d.ChosenIndex >= 0 && d.ChosenIndex < len(d.BucketSamples) {
		samplesCell = strconv.FormatUint(d.BucketSamples[d.ChosenIndex], 10)
	}
	return append(rec, d.RouteMode, obsCell, samplesCell, strconv.FormatBool(d.Explored))
}

// formatCycles renders a cycle count as whole cycles, byte-identical to
// strconv.FormatFloat(x, 'f', 0, 64). FormatFloat takes strconv's slow
// multi-precision path (bigFtoa) for 'f' at any fixed precision, so
// every value an int64 holds exactly — below 2^53 and without the sign
// bit, since −0 prints "-0" — goes through FormatInt instead, rounded
// half to even as FormatFloat rounds.
func formatCycles(x float64) string {
	if !math.Signbit(x) && x < 1<<53 {
		return strconv.FormatInt(int64(math.RoundToEven(x)), 10)
	}
	return strconv.FormatFloat(x, 'f', 0, 64)
}

// WriteChromeTrace writes the load test's span timeline in Chrome
// trace_event JSON (loadable in Perfetto or chrome://tracing); with
// tracing off it writes a valid empty trace document.
func (r *Report) WriteChromeTrace(w io.Writer) error {
	return r.Trace.WriteChromeJSON(w)
}

// WriteSpanCSV writes the span timeline as a flat CSV
// (obs.SpanCSVHeader columns); with tracing off, just the header.
func (r *Report) WriteSpanCSV(w io.Writer) error {
	return r.Trace.WriteCSV(w)
}

// WriteJSON writes the whole report as one indented JSON document.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON decodes a report previously written by WriteJSON.
func ReadJSON(rd io.Reader) (*Report, error) {
	r := &Report{}
	if err := json.NewDecoder(rd).Decode(r); err != nil {
		return nil, err
	}
	return r, nil
}

// micros converts simulated cycles to microseconds at the nominal
// Table I clock — presentation only.
func micros(cycles uint64) float64 {
	return float64(cycles) / NominalHz * 1e6
}

// Summary renders the operator-facing overview: throughput, latency
// quantiles (cycles and nominal-clock microseconds) and per-shard
// utilisation.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s-loop load test: %d shards, %d rows ==\n", r.Mode, r.Shards, r.Rows)
	if r.ExecMode != "" {
		fmt.Fprintf(&b, "exec mode            %s (cost-model cycles, exact answers)\n", r.ExecMode)
	}
	if r.Concurrency > 0 {
		fmt.Fprintf(&b, "concurrency          %d clients\n", r.Concurrency)
	}
	fmt.Fprintf(&b, "requests             %d completed / %d offered\n", r.Completed, r.Offered)
	fmt.Fprintf(&b, "makespan             %d cycles (%.1f µs @2GHz)\n",
		r.MakespanCycles, micros(r.MakespanCycles))
	fmt.Fprintf(&b, "throughput           %.3f req/Mcycle (%.0f QPS @2GHz)\n",
		r.ThroughputRPMC, r.ThroughputRPMC*NominalHz/1e6)
	fmt.Fprintf(&b, "latency p50/p95/p99  %d / %d / %d cycles (%.1f / %.1f / %.1f µs)\n",
		r.LatencyP50, r.LatencyP95, r.LatencyP99,
		micros(r.LatencyP50), micros(r.LatencyP95), micros(r.LatencyP99))
	fmt.Fprintf(&b, "latency mean/max     %.0f / %d cycles\n", r.LatencyMean, r.LatencyMax)
	if r.Shed > 0 {
		fmt.Fprintf(&b, "shed                 %d requests refused by admission control\n", r.Shed)
	}
	if routed, explored := r.adaptiveTotals(); routed > 0 {
		fmt.Fprintf(&b, "adaptive routing     %d picks blended with observed cycles, %d explored\n",
			routed, explored)
	}
	if r.Faults != nil {
		fs := r.Faults
		fmt.Fprintf(&b, "faults               %d crash kills, %d stall delays, %d straggles\n",
			fs.CrashKills, fs.StallDelays, fs.Straggles)
		fmt.Fprintf(&b, "recovery             %d retries, %d hedges (%d won), %d failovers\n",
			fs.Retries, fs.Hedges, fs.HedgeWins, fs.Failovers)
		fmt.Fprintf(&b, "degraded             %d requests answered partially\n", r.Degraded)
	}
	for _, s := range r.PerShard {
		fmt.Fprintf(&b, "shard %-3d            %4d tasks %12d busy cycles %6.1f%% utilised\n",
			s.Shard, s.Tasks, s.BusyCycles, 100*s.Utilisation)
	}
	for _, p := range r.Pools {
		fmt.Fprintf(&b, "pool %-2d %-5s        %4d reqs %5d tasks %12d busy cycles %6.1f%% utilised\n",
			p.Pool, p.Arch, p.Requests, p.Tasks, p.BusyCycles, 100*p.Utilisation)
	}
	for _, cs := range r.Classes {
		att := "    —"
		if cs.SLOCycles > 0 {
			att = fmt.Sprintf("%5.1f%%", 100*cs.Attainment)
		}
		fmt.Fprintf(&b, "class %d %-12s %4d/%d done, shed %d, p50/p95/p99 %d/%d/%d cycles, SLO %s\n",
			cs.Class, cs.Name, cs.Completed, cs.Offered, cs.Shed,
			cs.LatencyP50, cs.LatencyP95, cs.LatencyP99, att)
	}
	if r.Counters.Len() > 0 {
		b.WriteString("-- machine counters (each distinct shard simulation summed once) --\n")
		b.WriteString(r.Counters.String())
	}
	return b.String()
}
