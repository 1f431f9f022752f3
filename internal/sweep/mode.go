// Execution modes: the knob that selects how a leg — a sweep cell's
// or, through internal/serve, a request's shard task — obtains its
// cycle figure. Exact mode runs the full machine simulation; estimate
// mode prices the plan with the analytic cost model (internal/cost)
// instead — orders of magnitude faster, with a bounded cycle error
// pinned by test and documented in docs/PERFORMANCE.md. Either mode
// composes with sharding. Estimate mode hard-refuses every output only
// a real simulation can produce (µop-level machine counters,
// virtual-time traces), so a fast-path result can never silently
// impersonate an exact one.
package sweep

import (
	"encoding/json"
	"fmt"
)

// ExecMode selects the execution mode of a sweep or serving run.
type ExecMode int

const (
	// ExecExact runs every cell or shard task as a full machine
	// simulation — the default, and the only mode that produces machine
	// counters, traces and verified engine results.
	ExecExact ExecMode = iota
	// ExecEstimate skips simulation entirely: cycle figures come from
	// the analytic cost model's structural estimators walking the query
	// description. A sweep computes no answer for an estimate cell;
	// serving takes answers (matches, revenue, groups) from the
	// reference evaluator, so merged responses stay exact while timing
	// is approximate. See docs/PERFORMANCE.md for the error contract.
	ExecEstimate
)

// String renders the mode the way flags and exports spell it.
func (m ExecMode) String() string {
	if m == ExecEstimate {
		return "estimate"
	}
	return "exact"
}

// ParseExecMode resolves a -exec flag spelling to its mode.
func ParseExecMode(s string) (ExecMode, bool) {
	switch s {
	case "exact":
		return ExecExact, true
	case "estimate":
		return ExecEstimate, true
	}
	return ExecExact, false
}

// ExecModeChoices renders the valid -exec spellings for usage errors.
func ExecModeChoices() string { return "exact, estimate" }

// MarshalJSON emits the mode by name, so exports read "estimate"
// rather than a bare enum value.
func (m ExecMode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON is the inverse of MarshalJSON.
func (m *ExecMode) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	mode, ok := ParseExecMode(s)
	if !ok {
		return fmt.Errorf("sweep: unknown exec mode %q (have %s)", s, ExecModeChoices())
	}
	*m = mode
	return nil
}
