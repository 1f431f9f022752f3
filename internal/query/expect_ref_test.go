package query

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
)

// The bit-by-bit expectation build the word-wide one in expect.go
// replaced, kept as the reference that expect_test.go checks it
// against byte for byte: every predicate stage becomes a flat bitmap
// through match1, row by row, and every region grows by append, one
// per-bit closure call per mask bit. Tuple plans' compares read the
// tuple lanes back from the laid-out image, as the engines do.

// bitRange reports whether any of mask's bits [lo, hi) is set.
func bitRange(mask []byte, lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if i/8 < len(mask) && mask[i/8]&(1<<(i%8)) != 0 {
			return true
		}
	}
	return false
}

// appendMasks appends chunks packed masks of bits bits each to dst: bit
// i of chunk c's mask, little-endian within its (bits+7)/8 bytes, is
// set iff hit(c, i).
func appendMasks(dst []byte, chunks, bits int, hit func(c, i int) bool) []byte {
	nb := (bits + 7) / 8
	for c := 0; c < chunks; c++ {
		dst = append(dst, make([]byte, nb)...)
		m := dst[len(dst)-nb:]
		for i := 0; i < bits; i++ {
			if hit(c, i) {
				m[i/8] |= 1 << (i % 8)
			}
		}
	}
	return dst
}

// stageMask evaluates one stage over its whole column.
func stageMask(t *db.Table, st Stage) []byte {
	vals := columnSlice(t, st.Col)
	mask := make([]byte, (t.N+7)/8)
	for i := 0; i < t.N; i++ {
		if st.Match(vals[i]) {
			mask[i/8] |= 1 << (i % 8)
		}
	}
	return mask
}

// refExpect is the reference build's buffer and region offsets. It
// builds every region the build before the word-wide one did: each
// stage's prefix of an engine column plan, checked or not.
type refExpect struct {
	expect    []byte
	prefixExp []uint32
	cmpExp    map[colBound]uint32
	rowExp    []uint32
	tupleExp  uint32
}

// refExpectations builds a prepared workload's reference expectations.
func refExpectations(w *Workload) refExpect {
	var r refExpect
	p := w.Plan
	region := func(chunks, bits int, hit func(c, i int) bool) uint32 {
		off := uint32(len(r.expect))
		r.expect = appendMasks(r.expect, chunks, bits, hit)
		return off
	}
	lanes := int(p.OpSize) / isa.LaneBytes
	switch {
	case p.Arch == X86:
	case p.Strategy == TupleAtATime:
		chunks, _, stride := w.tupleChunks()
		data := w.M.Image[w.NSM.Base:]
		hit := func(row *patternRow, c, i int) bool {
			return match1(Bound{row.kind, row.pat[i%db.NumFields]}, isa.LaneAt(data, c*stride/4+i))
		}
		if p.Arch == HMC {
			for k := range w.rows {
				row := &w.rows[k]
				r.rowExp = append(r.rowExp, region(chunks, lanes, func(c, i int) bool { return hit(row, c, i) }))
			}
			break
		}
		r.tupleExp = region(chunks, lanes, func(c, i int) bool {
			for k := range w.rows {
				if !hit(&w.rows[k], c, i) {
					return false
				}
			}
			return true
		})
	case p.Arch == HMC:
		chunks := w.Table.N / lanes
		r.cmpExp = map[colBound]uint32{}
		add := func(col int, b Bound) {
			vals := columnSlice(w.Table, col)
			r.cmpExp[colBound{col, b}] = region(chunks, lanes, func(c, i int) bool { return match1(b, vals[c*lanes+i]) })
		}
		for _, st := range w.Desc.Stages {
			for _, b := range st.Bounds {
				add(st.Col, b)
			}
		}
		if w.Desc.Grouped() {
			for v := range db.RFValues {
				add(db.FieldReturnFlag, Bound{isa.CmpEQ, int32(v)})
			}
			for v := range db.LSValues {
				add(db.FieldLineStatus, Bound{isa.CmpEQ, int32(v)})
			}
		}
	default:
		var prefix []byte
		for i, st := range w.Desc.Stages {
			m := stageMask(w.Table, st)
			if i > 0 {
				for j := range m {
					m[j] &= prefix[j]
				}
			}
			prefix = m
			r.prefixExp = append(r.prefixExp, uint32(len(r.expect)))
			r.expect = appendMasks(r.expect, w.Table.N/lanes, lanes, func(c, i int) bool {
				j := c*lanes + i
				return m[j/8]&(1<<(j%8)) != 0
			})
		}
	}
	return r
}

// namedRegion pairs a region Prepare built with the same region of the
// reference build.
type namedRegion struct {
	name     string
	off, ref uint32
}

// builtRegions lists every region in w.expect, paired with the
// reference build's.
func builtRegions(w *Workload, r refExpect) []namedRegion {
	var out []namedRegion
	switch {
	case w.Plan.Arch == X86:
	case w.Plan.Strategy == TupleAtATime && w.Plan.Arch == HMC:
		for k, row := range w.rows {
			out = append(out, namedRegion{fmt.Sprintf("%s row", row.kind), row.exp, r.rowExp[k]})
		}
	case w.Plan.Strategy == TupleAtATime:
		out = append(out, namedRegion{"tuple", w.tupleExp, r.tupleExp})
	case w.Plan.Arch == HMC:
		for cb, off := range w.cmpExp {
			out = append(out, namedRegion{fmt.Sprintf("field %d %s %d", cb.col, cb.b.Kind, cb.b.Imm), off, r.cmpExp[cb]})
		}
	default:
		for s, off := range w.prefixExp {
			if off != noRegion {
				out = append(out, namedRegion{fmt.Sprintf("prefix %d", s), off, r.prefixExp[s]})
			}
		}
	}
	return out
}
