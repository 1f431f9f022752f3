package query

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
)

// The expectation build: Prepare sizes Workload.expect once for the
// regions the plan's checked instructions name and fills them 64 rows
// per word, evaluating each predicate bound once over its column.

// noRegion marks a predicate stage whose prefix no checked instruction
// names, so Prepare builds no region for it.
const noRegion = math.MaxUint32

// buildExpectations builds expect: every region a checked instruction
// of the plan's generator names, and no other.
func (w *Workload) buildExpectations() {
	p := w.Plan
	switch {
	case p.Arch == X86:
	case p.Strategy == TupleAtATime:
		w.buildTupleExpectations()
	case p.Arch == HMC:
		w.buildCompareExpectations()
	default:
		w.buildPrefixExpectations()
	}
}

// regionBytes is the size of one expectation region: every chunk's
// mask, MaskBytes(OpSize) bytes each. It is also the size of a column
// plan's mask region in the image.
func (w *Workload) regionBytes() int {
	chunks := w.Table.N / (int(w.Plan.OpSize) / db.ColumnWidth)
	if w.Plan.Strategy == TupleAtATime {
		chunks, _, _ = w.tupleChunks()
	}
	return chunks * int(isa.MaskBytes(w.Plan.OpSize))
}

// region is the expectation region at off.
func (w *Workload) region(off uint32) []byte {
	return w.expect[off:][:w.regionBytes()]
}

// buildTupleExpectations builds the tuple plans' regions: HMC checks
// each pattern row's compare, HIVE the AND of them it stores. A row's
// compare of tuple t is a 16-bit lane mask, bit f for field f, and it
// can clear only the bits of the fields the row bounds: every other
// lane holds the row's always-true pattern value.
func (w *Workload) buildTupleExpectations() {
	regions := len(w.rows)
	if w.Plan.Arch == HIVE {
		regions = 1
	}
	size := w.regionBytes()
	w.expect = make([]byte, regions*size)
	for k := range w.rows {
		w.rows[k].exp = uint32(k * size)
	}
	// One word-wide compare per bounded field of each row; miss holds
	// the rows of the current word that fail it.
	type fieldBound struct {
		row  int
		bit  uint16
		b    Bound
		vals []int32
		miss uint64
	}
	var fields []fieldBound
	for k, r := range w.rows {
		always := int32(minInt32)
		if r.kind == isa.CmpLE {
			always = maxInt32
		}
		for f, v := range r.pat {
			if v != always {
				fields = append(fields, fieldBound{row: k, bit: 1 << f, b: Bound{r.kind, v}, vals: columnSlice(w.Table, f)})
			}
		}
	}
	for j := 0; j < w.Table.N/64; j++ {
		for i := range fields {
			fields[i].miss = ^boundBits(fields[i].b, fields[i].vals[64*j:])
		}
		for t := 0; t < 64; t++ {
			masks := [2]uint16{0xFFFF, 0xFFFF}
			for _, fb := range fields {
				if fb.miss>>t&1 != 0 {
					masks[fb.row] &^= fb.bit
				}
			}
			if w.Plan.Arch == HIVE {
				w.putTupleMask(w.tupleExp, 64*j+t, masks[0]&masks[1])
				continue
			}
			for k := range w.rows {
				w.putTupleMask(w.rows[k].exp, 64*j+t, masks[k])
			}
		}
	}
}

// buildCompareExpectations builds the HMC column plans' regions, one
// per lane-uniform compare: every predicate bound and, for a grouped
// query, every group-key value.
func (w *Workload) buildCompareExpectations() {
	var cmps []colBound
	for _, st := range w.Desc.Stages {
		for _, b := range st.Bounds {
			cmps = append(cmps, colBound{st.Col, b})
		}
	}
	if w.Desc.Grouped() {
		for v := range db.RFValues {
			cmps = append(cmps, colBound{db.FieldReturnFlag, Bound{isa.CmpEQ, int32(v)}})
		}
		for v := range db.LSValues {
			cmps = append(cmps, colBound{db.FieldLineStatus, Bound{isa.CmpEQ, int32(v)}})
		}
	}
	size := w.regionBytes()
	w.expect = make([]byte, len(cmps)*size)
	w.cmpExp = make(map[colBound]uint32, len(cmps))
	for k, cb := range cmps {
		off := uint32(k * size)
		w.cmpExp[cb] = off
		vals := columnSlice(w.Table, cb.col)
		for j := 0; j < w.Table.N/64; j++ {
			w.putRowMasks(off, j, boundBits(cb.b, vals[64*j:]))
		}
	}
}

// buildPrefixExpectations builds the HIVE and HIPE column plans'
// regions: the masks of the AND of stages 0..s, for the stages s whose
// stored mask some instruction checks. The HIVE column plan checks
// every stage, the HIPE plan and the fused HIVE plan only the last,
// and HIPE's Q01 aggregation none. The last stage's prefix is the
// whole predicate, so it must equal the reference bitmask.
func (w *Workload) buildPrefixExpectations() {
	p, stages := w.Plan, w.Desc.Stages
	first := 0
	switch {
	case p.Arch == HIPE && w.Desc.Grouped():
		return
	case p.Arch == HIPE || p.Fused:
		first = len(stages) - 1
	}
	size := w.regionBytes()
	w.expect = make([]byte, (len(stages)-first)*size)
	w.prefixExp = make([]uint32, len(stages))
	for s := range stages {
		w.prefixExp[s] = noRegion
		if s >= first {
			w.prefixExp[s] = uint32((s - first) * size)
		}
	}
	for j := 0; j < w.Table.N/64; j++ {
		m := ^uint64(0)
		for s, st := range stages {
			vals := columnSlice(w.Table, st.Col)[64*j:]
			for _, b := range st.Bounds {
				m &= boundBits(b, vals)
			}
			if s >= first {
				w.putRowMasks(w.prefixExp[s], j, m)
			}
		}
		if ref := binary.LittleEndian.Uint64(w.matchMask[8*j:]); m != ref {
			panic(fmt.Sprintf("query: %s: the predicate over rows %d..%d is %#016x, the reference %#016x",
				p, 64*j, 64*j+63, m, ref))
		}
	}
}

// putRowMasks stores bits — bit i for row 64j+i — into the column-plan
// region at off. A chunk of eight rows or more packs its rows' bits
// exactly like a flat bitmap; a 16 B chunk holds four rows and still
// takes a whole mask byte, so each of the word's nibbles lands in a
// byte of its own.
func (w *Workload) putRowMasks(off uint32, j int, bits uint64) {
	if w.Plan.OpSize/db.ColumnWidth < 8 {
		dst := w.expect[int(off)+16*j:][:16]
		for i := range dst {
			dst[i] = byte(bits>>(4*i)) & 0xF
		}
		return
	}
	binary.LittleEndian.PutUint64(w.expect[int(off)+8*j:], bits)
}

// putTupleMask stores tuple t's lane mask m into the tuple-plan region
// at off: two bytes per tuple when a chunk holds whole tuples, else the
// one byte of the chunk's OpSize/4 lanes, the tuple's first fields.
func (w *Workload) putTupleMask(off uint32, t int, m uint16) {
	if lanes := w.Plan.OpSize / isa.LaneBytes; lanes < db.NumFields {
		w.expect[int(off)+t] = byte(m & (1<<lanes - 1))
		return
	}
	binary.LittleEndian.PutUint16(w.expect[int(off)+2*t:], m)
}

// anyMatch reports whether chunk c's expected mask in the region at off
// has a bit set: whether a tuple of the chunk survives.
func (w *Workload) anyMatch(off uint32, c int) bool {
	o := w.expectAt(off, c)
	for _, b := range w.expect[o : o+isa.MaskBytes(w.Plan.OpSize)] {
		if b != 0 {
			return true
		}
	}
	return false
}

// boundBits evaluates b over 64 values: bit i is set iff vals[i]
// satisfies b. Each compare is the sign of a 64-bit difference, so the
// loops carry no data-dependent branch.
func boundBits(b Bound, vals []int32) uint64 {
	vals = vals[:64]
	imm := int64(b.Imm)
	neg := func(x int64) uint64 { return uint64(x) >> 63 }
	var bits uint64
	switch b.Kind {
	case isa.CmpLT:
		for i, v := range vals {
			bits |= neg(int64(v)-imm) << i
		}
	case isa.CmpLE:
		for i, v := range vals {
			bits |= neg(int64(v)-imm-1) << i
		}
	case isa.CmpGT:
		for i, v := range vals {
			bits |= neg(imm-int64(v)) << i
		}
	case isa.CmpGE:
		for i, v := range vals {
			bits |= neg(imm-int64(v)-1) << i
		}
	case isa.CmpEQ, isa.CmpNE:
		// d|-d is negative iff d is not zero.
		for i, v := range vals {
			d := int64(v) - imm
			bits |= neg(d|-d) << i
		}
		if b.Kind == isa.CmpEQ {
			bits = ^bits
		}
	default:
		panic(fmt.Sprintf("query: bound with non-compare kind %s", b.Kind))
	}
	return bits
}
