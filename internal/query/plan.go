// Package query implements the benchmark workloads. Every plan
// compiles from a small declarative query description (desc.go) — an
// ordered predicate pipeline plus, for aggregations, group-by keys and
// an aggregate list. Two workload families ship: the paper's TPC-H
// Query 06 selection scan (Q6Select) and the TPC-H Query 01-style
// grouped aggregation (Q1Agg). Both compile four ways —
//
//   - x86: AVX-512 µops through the cache hierarchy;
//   - HMC: extended HMC 2.1 load-compare instructions, control flow and
//     bitmask assembly on the processor;
//   - HIVE: lock/unlock register-bank programs in the logic layer,
//     control flow (bitmask fetch + skip decisions) on the processor;
//   - HIPE: one predicated register-bank program per chunk group —
//     control flow converted to data flow inside the memory.
//
// Each generator produces a lazy µop stream for the core model plus the
// functional bookkeeping needed to verify the simulated result against
// the db package's reference evaluators (final bitmasks for selections,
// per-group accumulator lane sums for aggregations).
package query

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/machine"
)

// Arch selects the execution model.
type Arch uint8

// Architectures evaluated in the paper.
const (
	X86 Arch = iota
	HMC
	HIVE
	HIPE
)

var archNames = [...]string{"x86", "hmc", "hive", "hipe"}

// String implements fmt.Stringer.
func (a Arch) String() string {
	if a == ArchAuto {
		return "auto"
	}
	if int(a) < len(archNames) {
		return archNames[a]
	}
	return fmt.Sprintf("arch(%d)", uint8(a))
}

// Strategy selects the scan strategy / storage layout pair.
type Strategy uint8

// Scan strategies (each implies its layout, as in the paper).
const (
	// TupleAtATime scans the NSM (row-store) layout tuple by tuple,
	// materialising matching tuples.
	TupleAtATime Strategy = iota
	// ColumnAtATime scans the DSM (column-store) layout column by
	// column, maintaining an intermediate bitmask.
	ColumnAtATime
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == TupleAtATime {
		return "tuple-at-a-time"
	}
	return "column-at-a-time"
}

// Plan is one experiment configuration.
type Plan struct {
	Arch     Arch
	Strategy Strategy
	// OpSize is the memory operation width in bytes: 16..256 for the
	// cube architectures, 16..64 for x86 (AVX-512 limit).
	OpSize uint32
	// Unroll is the loop unrolling depth: 1..32 (x86 compilers stop at 8
	// per the paper).
	Unroll int
	// Fused selects HIVE's best-case column plan: one pass that loads
	// and compares all three predicate columns per chunk and combines
	// the masks in the register bank — the "full scan in columns" of the
	// paper's Figure 3d, with no per-column bitmask round trips to the
	// processor. Only meaningful for Arch == HIVE, ColumnAtATime.
	Fused bool
	// Aggregate extends the HIPE scan with the full Query 06 aggregation
	// — sum(l_extendedprice * l_discount) over matches — computed by the
	// engine's Mul/Add lanes under predication, so the whole query
	// executes in memory (an extension beyond the paper's select-scan
	// evaluation). Only valid for Arch == HIPE, Kind == Q6Select.
	Aggregate bool
	// Kind selects the workload family: Q6Select (zero value, the
	// paper's selection scan over Q) or Q1Agg (the grouped aggregation
	// over Q1). JSON-omitted at the default so Q06 exports are
	// unchanged by the field's existence.
	Kind QueryKind `json:",omitempty"`
	// Q is the Query 06 predicate (Kind == Q6Select).
	Q db.Q06
	// Q1 is the Query 01 predicate (Kind == Q1Agg).
	Q1 db.Q01 `json:",omitzero"`
}

var validOpSizes = map[uint32]bool{16: true, 32: true, 64: true, 128: true, 256: true}

// Auto reports whether the plan awaits backend resolution by the
// adaptive planner.
func (p Plan) Auto() bool { return p.Arch == ArchAuto }

// Validate rejects configurations outside the paper's evaluated space.
// Per-backend constraints come from the backend table's capability
// reports; an auto plan validates when at least one backend could
// resolve it.
func (p Plan) Validate() error {
	if !validOpSizes[p.OpSize] {
		return fmt.Errorf("query: op size %d not in {16,32,64,128,256}", p.OpSize)
	}
	if p.Unroll < 1 || p.Unroll > 32 {
		return fmt.Errorf("query: unroll %d outside 1..32", p.Unroll)
	}
	if p.Kind != Q6Select && p.Kind != Q1Agg {
		return fmt.Errorf("query: unknown query kind %d", p.Kind)
	}
	if p.Kind == Q1Agg {
		if p.Fused {
			return fmt.Errorf("query: the fused variant is a Q06 plan; Q01 aggregation is already one pass")
		}
		if p.Aggregate {
			return fmt.Errorf("query: Aggregate is the Q06 revenue extension; Q01 plans always aggregate")
		}
	}
	if p.Auto() {
		for _, b := range backends {
			q := p
			q.Arch = b.arch
			if q.Validate() == nil {
				return nil
			}
		}
		return fmt.Errorf("query: auto plan %s fits no registered backend's envelope", p)
	}
	be, ok := BackendFor(p.Arch)
	if !ok {
		return fmt.Errorf("query: unknown architecture %d", p.Arch)
	}
	caps := be.caps
	if p.Fused && !(caps.Fused && p.Strategy == ColumnAtATime) {
		return fmt.Errorf("query: fused plans only exist for HIVE column-at-a-time")
	}
	if p.Aggregate && !caps.Aggregate {
		return fmt.Errorf("query: in-memory aggregation is the HIPE extension plan")
	}
	if !caps.Supports(p.Strategy) {
		other := TupleAtATime
		if p.Strategy == TupleAtATime {
			other = ColumnAtATime
		}
		return fmt.Errorf("query: the %s backend defines no %s plan (%s only)",
			be.Name(), p.Strategy, other)
	}
	if p.OpSize > caps.MaxOpSize {
		return fmt.Errorf("query: %s op size %d exceeds the backend's %d B envelope", be.Name(), p.OpSize, caps.MaxOpSize)
	}
	if p.Unroll > caps.MaxUnroll {
		return fmt.Errorf("query: %s unroll %d exceeds the backend's %d", be.Name(), p.Unroll, caps.MaxUnroll)
	}
	return nil
}

// String renders a plan identifier like "hive/column-at-a-time/256B/32x"
// (Q01 aggregation plans carry a "/q1" suffix).
func (p Plan) String() string {
	suffix := ""
	if p.Fused {
		suffix = "/fused"
	}
	if p.Kind == Q1Agg {
		suffix += "/q1"
	}
	return fmt.Sprintf("%s/%s/%dB/%dx%s", p.Arch, p.Strategy, p.OpSize, p.Unroll, suffix)
}

// chunkedStream materialises µops block by block, so multi-million-µop
// programs never exist in memory at once. The stream owns one block
// buffer, its emitter, from its first block to its end: next resets the
// emitter and fills it with the following block, or reports false once
// the program has ended. Next hands µops out by value, an offload µop
// pointing at its instruction in the block buffer — valid, as
// cpu.Stream allows, until the next call. So a block is dead once the
// stream moves past it. A stream takes its machine's spare buffers (see
// machine.Blocks) at its first block and hands them back at its end, so
// two live streams never share a buffer.
type chunkedStream struct {
	next  func(e *emitter) bool
	spare *machine.Blocks // where the buffers come from and return to
	blk   emitter
	pos   int // next µop of blk to hand out
	inst  int // next offload instruction of blk to hand out
	done  bool
}

// Next implements cpu.Stream.
func (s *chunkedStream) Next() (isa.MicroOp, bool) {
	for s.pos == len(s.blk.ops) {
		if s.done {
			return isa.MicroOp{}, false
		}
		if s.blk.ops == nil && s.spare != nil {
			s.blk.ops, s.blk.insts = s.spare.Ops, s.spare.Insts
			*s.spare = machine.Blocks{}
		}
		s.pos, s.inst = 0, 0
		if !s.next(&s.blk) {
			// A finished stream hands its buffers back.
			if s.spare != nil {
				*s.spare = machine.Blocks{Ops: s.blk.ops, Insts: s.blk.insts}
			}
			s.blk, s.done = emitter{}, true
		}
	}
	op := s.blk.ops[s.pos]
	s.pos++
	if op.Class == isa.Offload {
		op.Offload = &s.blk.insts[s.inst]
		s.inst++
	}
	return op, true
}

// vregs hands out fresh virtual CPU registers.
type vregs struct{ next isa.Reg }

func (v *vregs) fresh() isa.Reg {
	v.next++
	return v.next
}
