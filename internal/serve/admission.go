// Admission control: request classes, per-class latency SLOs, and the
// shed policy a replicated fleet applies under overload. Classes are
// declared on the load spec; requests carry an index into that table.
// Shedding is a pure function of the virtual-time queue state, so it is
// exactly as deterministic — and as worker-count-independent — as the
// rest of the timeline replay.
package serve

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/stats"
)

// ClassSpec declares one admission class.
type ClassSpec struct {
	// Name labels the class in reports ("batch", "interactive", ...).
	Name string
	// SLOCycles is the class's latency objective in simulated cycles
	// (inclusive). Zero means the class has no SLO; its attainment
	// column reports blank.
	SLOCycles uint64
	// PatienceCycles bounds the queueing delay the class tolerates when
	// shedding is enabled: a request is shed when even the least-loaded
	// candidate replica's backlog exceeds this. Zero means the class is
	// never shed — give the highest class zero patience bound and
	// overload sheds lowest-patience (typically lowest-value) work
	// first.
	PatienceCycles uint64
	// TimeoutCycles bounds one attempt's virtual-time latency (queueing
	// plus service) when a recovery policy is in force: an attempt that
	// cannot complete every shard by dispatch + timeout is abandoned at
	// the deadline and, retry budget permitting, re-dispatched. Zero
	// means attempts are never timed out (a crashed replica then parks
	// the attempt until the pool recovers).
	TimeoutCycles uint64
	// HedgeCycles is the class's hedging delay: when the recovery
	// policy enables hedging and the primary attempt has not completed
	// this many cycles after dispatch, a second attempt launches on the
	// next-ranked distinct replica pool and the first successful
	// completion wins. Zero disables hedging for the class.
	HedgeCycles uint64
}

// ClassStats is one class's row in a fleet report: offered/shed/done
// counts, latency quantiles, and exact SLO attainment.
type ClassStats struct {
	// Class is the index into the load spec's class table.
	Class int
	// Name echoes the class spec.
	Name string
	// SLOCycles echoes the class's latency objective (0 = none).
	SLOCycles uint64 `json:",omitempty"`
	// PatienceCycles echoes the class's shed bound (0 = never shed).
	PatienceCycles uint64 `json:",omitempty"`
	// Offered counts the class's arrivals; Shed the requests admission
	// control refused; Completed the requests served.
	Offered   int
	Shed      int `json:",omitempty"`
	Completed int
	// Attained counts completed requests inside the SLO; Attainment is
	// the exact fraction Attained/Completed (0 when no SLO or empty).
	Attained   int     `json:",omitempty"`
	Attainment float64 `json:",omitempty"`
	// Latency quantiles over the class's completed requests, in cycles.
	LatencyP50 uint64
	LatencyP95 uint64
	LatencyP99 uint64
	// Recovery accounting, set only when the load test injected faults
	// or declared a recovery policy (JSON-omitted otherwise, so
	// fault-free reports are byte-identical to their pre-fault form).
	// Degraded counts completed requests answered with a partial
	// result after the retry budget ran out — a degraded request counts
	// against SLO attainment no matter how fast it failed. Retries,
	// Hedges, HedgeWins and Failovers total the class's recovery
	// actions.
	Degraded  int `json:",omitempty"`
	Retries   int `json:",omitempty"`
	Hedges    int `json:",omitempty"`
	HedgeWins int `json:",omitempty"`
	Failovers int `json:",omitempty"`
	// MeanCoverage is the mean fraction of table rows actually scanned
	// across the class's completed requests (1 when nothing degraded);
	// MeanAnswerErr the mean relative revenue error of the returned
	// answers against the reference evaluator (0 when nothing
	// degraded). Both only set on faulted/recovering runs.
	MeanCoverage  float64 `json:",omitempty"`
	MeanAnswerErr float64 `json:",omitempty"`
}

// ShedTrace records one shed request for auditability.
type ShedTrace struct {
	// Index is the request's position in the admitted stream.
	Index int
	// Class is its admission class.
	Class int
	// Arrival is the virtual cycle it arrived (and was refused) at.
	Arrival uint64
	// QueueCycles is the backlog on the least-loaded candidate replica
	// at arrival — the delay bound the class's patience lost to.
	QueueCycles uint64
}

// checkClass is the class check every admission path shares: a class
// indexes a load spec's class table, so it is never negative. Load tests
// further bound it by the table they declare.
func checkClass(req Request) error {
	if req.Class < 0 {
		return fmt.Errorf("serve: negative admission class %d", req.Class)
	}
	return nil
}

// classAccum accumulates one class's report row during the replay.
type classAccum struct {
	hist        stats.LogHist
	slo         stats.Attainment
	row         ClassStats
	coverageSum float64
	errSum      float64
}

func newClassAccums(classes []ClassSpec) []classAccum {
	out := make([]classAccum, len(classes))
	for i, cs := range classes {
		out[i].slo.Bound = cs.SLOCycles
		out[i].row = ClassStats{
			Class: i, Name: cs.Name,
			SLOCycles: cs.SLOCycles, PatienceCycles: cs.PatienceCycles,
		}
	}
	return out
}

// observe folds one completed request into the class's row: latency and
// SLO accounting, except that a degraded (partial) answer counts as an
// SLO miss no matter how quickly the fleet gave up — a wrong answer
// inside the latency bound is still a broken objective.
func (a *classAccum) observe(latency uint64, degraded bool, coverage, answerErr float64) {
	a.row.Completed++
	a.hist.Observe(latency)
	if a.row.SLOCycles > 0 {
		if degraded {
			a.slo.Miss()
		} else {
			a.slo.Observe(latency)
		}
	}
	if degraded {
		a.row.Degraded++
	}
	a.coverageSum += coverage
	a.errSum += answerErr
}

// finish freezes the row. Coverage and answer-error means are emitted
// only for faulted (recovering) reports.
func (a *classAccum) finish(recovering bool) ClassStats {
	a.row.LatencyP50 = a.hist.Quantile(0.50)
	a.row.LatencyP95 = a.hist.Quantile(0.95)
	a.row.LatencyP99 = a.hist.Quantile(0.99)
	if a.row.SLOCycles > 0 {
		a.row.Attained = int(a.slo.Met)
		a.row.Attainment = a.slo.Fraction()
	}
	if recovering && a.row.Completed > 0 {
		a.row.MeanCoverage = a.coverageSum / float64(a.row.Completed)
		a.row.MeanAnswerErr = a.errSum / float64(a.row.Completed)
	}
	return a.row
}
