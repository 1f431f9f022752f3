// The backend table: the paper's four execution architectures (x86,
// HMC, HIVE, HIPE — Table I, Figure 3), one row each, indexed by Arch.
// A row is the architecture's static capability report. Plan
// validation, the CLIs' architecture lists, the Figure 3d best shapes
// and the adaptive planner (internal/cost, internal/serve) all read the
// table; Workload.Stream picks the architecture's generator.
package query

import (
	"fmt"
	"strings"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
)

// Stream is a lazily-generated µop stream (the shape cpu.Stream
// consumes): Next returns the following µop until the program ends.
type Stream interface {
	Next() (isa.MicroOp, bool)
}

// Caps is a backend's static capability and constraint report: the
// envelope of plans it can compile, mirroring the paper's evaluated
// space. Plan.Validate enforces it; the planner uses it to trim
// candidate backends before costing them.
type Caps struct {
	// TupleAtATime / ColumnAtATime report the scan strategies the
	// backend compiles.
	TupleAtATime  bool
	ColumnAtATime bool
	// MaxOpSize is the largest memory operation width in bytes.
	MaxOpSize uint32
	// MaxUnroll is the deepest loop unrolling the backend's compiler
	// supports.
	MaxUnroll int
	// Fused marks support for the fused full-scan variant (one pass,
	// no intermediate bitmask round trips).
	Fused bool
	// Aggregate marks support for the in-memory Q06 revenue aggregation
	// extension.
	Aggregate bool
}

// Supports reports whether the backend compiles the given strategy.
func (c Caps) Supports(s Strategy) bool {
	if s == TupleAtATime {
		return c.TupleAtATime
	}
	return c.ColumnAtATime
}

// Backend is one execution architecture of the paper: a row of the
// backend table, its Arch and its static capability report.
type Backend struct {
	arch Arch
	caps Caps
}

// Arch is the architecture the backend implements.
func (b Backend) Arch() Arch { return b.arch }

// Name is the backend's CLI spelling.
func (b Backend) Name() string { return b.arch.String() }

// Caps reports the backend's capability envelope.
func (b Backend) Caps() Caps { return b.caps }

// backends is the table, indexed by Arch; its order is the
// deterministic iteration order planners and CLIs use.
var backends = [...]Backend{
	// AVX-512 caps vector ops at 64 B; the paper's compilers stop
	// unrolling at 8.
	X86:  {X86, Caps{TupleAtATime: true, ColumnAtATime: true, MaxOpSize: 64, MaxUnroll: 8}},
	HMC:  {HMC, Caps{TupleAtATime: true, ColumnAtATime: true, MaxOpSize: 256, MaxUnroll: 32}},
	HIVE: {HIVE, Caps{TupleAtATime: true, ColumnAtATime: true, MaxOpSize: 256, MaxUnroll: 32, Fused: true}},
	// The predicated plan is defined for column-at-a-time scans; the
	// in-memory Q06 aggregation is its extension.
	HIPE: {HIPE, Caps{ColumnAtATime: true, MaxOpSize: 256, MaxUnroll: 32, Aggregate: true}},
}

// BackendFor returns the table's row for an architecture; ok is false
// for an architecture outside the table, ArchAuto included.
func BackendFor(a Arch) (b Backend, ok bool) {
	if int(a) < len(backends) {
		return backends[a], true
	}
	return Backend{}, false
}

// Backends returns a copy of the table in architecture order, so a
// caller (hipe.Backends hands it out) cannot write into the table.
func Backends() []Backend { return append([]Backend(nil), backends[:]...) }

// BackendNames returns the backend names in architecture order — what
// CLI error messages list instead of a hard-coded string.
func BackendNames() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
	}
	return names
}

// BestPlan returns architecture a's best configuration over predicate
// q, its Figure 3d shape: column-at-a-time at the row's widest op size
// and deepest unroll, fused where the row has the fused variant. An
// architecture outside the table gets a plan Validate rejects.
func BestPlan(a Arch, q db.Q06) Plan {
	b, _ := BackendFor(a)
	return Plan{Arch: a, Strategy: ColumnAtATime, OpSize: b.caps.MaxOpSize,
		Unroll: b.caps.MaxUnroll, Fused: b.caps.Fused, Q: q}
}

// ArchAuto is the adaptive planner's sentinel architecture: a plan
// carrying it names no backend — the cost model resolves it to the
// predicted-fastest backend (given the workload's selectivity profile)
// before the plan compiles. Validate accepts an auto plan when at least
// one backend could serve as its resolution; compiling an unresolved
// auto plan panics.
const ArchAuto Arch = 0xFF

// ParseArch resolves a backend name (or "auto") to its architecture.
func ParseArch(name string) (Arch, bool) {
	if name == ArchAuto.String() {
		return ArchAuto, true
	}
	for _, b := range backends {
		if b.Name() == name {
			return b.arch, true
		}
	}
	return 0, false
}

// ArchChoices renders the valid -arch spellings for CLI usage errors:
// the backend names plus the planner's "auto".
func ArchChoices() string {
	return strings.Join(append(BackendNames(), ArchAuto.String()), ", ")
}

// Candidates returns the concrete plans an auto plan can resolve to:
// the plan with each backend's architecture substituted, trimmed to the
// backends whose envelope admits the plan's shape for an n-row table,
// in architecture order. A non-auto plan returns itself when valid.
// This is the sweep engine's resolution rule — the cell keeps its shape
// axes and the planner picks among backends that can run that shape;
// the serving layer instead routes among per-backend best shapes (see
// BestPlan).
func (p Plan) Candidates(tuples int) []Plan {
	if p.Arch != ArchAuto {
		if p.ValidateFor(tuples) != nil {
			return nil
		}
		return []Plan{p}
	}
	var out []Plan
	for _, b := range backends {
		q := p
		q.Arch = b.arch
		if q.ValidateFor(tuples) == nil {
			out = append(out, q)
		}
	}
	return out
}

// Stream builds the µop stream for the workload's plan: the generator
// its architecture, strategy and query shape name. Every stream borrows
// its block buffers from the workload's machine.
func (w *Workload) Stream() Stream {
	a, tuple, grouped := w.Plan.Arch, w.Plan.Strategy == TupleAtATime, w.Desc.Grouped()
	var s *chunkedStream
	switch {
	case a == X86 && tuple:
		s = w.x86Tuple()
	case a == X86 && grouped:
		s = w.q1x86Column()
	case a == X86:
		s = w.x86Column()
	case a == HMC && tuple:
		s = w.hmcTuple()
	case a == HMC && grouped:
		s = w.q1hmcColumn()
	case a == HMC:
		s = w.hmcColumn()
	case a == HIVE && tuple:
		s = w.hiveTuple()
	case a == HIVE && w.Plan.Fused:
		s = w.hiveFusedColumn()
	case a == HIVE:
		s = w.hiveColumn()
	case a == HIPE && grouped:
		s = w.q1hipeColumn()
	case a == HIPE:
		s = w.hipeColumn()
	default:
		panic(fmt.Sprintf("query: plan %s names no registered backend (auto plans must be resolved before compiling)", w.Plan))
	}
	s.spare = &w.M.Blocks
	return s
}
