package isa

import (
	"encoding/binary"
	"fmt"
)

// The engines execute instructions functionally over byte images so the
// simulated queries compute real answers. Vector registers and DRAM rows
// are treated as sequences of little-endian signed 32-bit lanes.
//
// The kernels below are the engines' whole functional data path, so they
// are shaped for the host rather than written lane by lane:
//
//   - The ALUKind switch runs once per call and picks one tight loop; no
//     loop switches on the kind per lane. Compare kinds come in
//     complementary pairs that share a loop: NE, GE and LE are EQ, LT and
//     GT with the mask inverted.
//   - The loops step over 64-bit little-endian words, two lanes at a
//     time. And, Or, Xor and the zero test act on the whole word;
//     compares, Add, Sub and Mul act on its two 32-bit halves. A size
//     that is not a whole number of words leaves one trailing lane, which
//     runs through the same loop as the low half of a zero-padded word.
//     CompactMask and ExpandMask take eight lanes (one mask byte) per
//     step, zero-padding a last partial group the same way.
//   - Every operand is re-sliced to the op size once, before the loop, so
//     the compiler proves the sources' accesses in range and keeps one
//     bounds check per word, on the destination.
//   - LaneOpImm has loops of its own that hold the immediate in a
//     register; LaneOpPattern tiles its pattern into a register-sized
//     vector and runs LaneOp's loops.
//
// Lanes stay little-endian through encoding/binary, and dst may alias
// either source, so every kernel writes exactly the bytes of a
// lane-at-a-time loop. lanes_ref_test.go keeps that loop as the
// reference, and lanes_test.go checks the two against each other.

// LaneAt reads the i-th 32-bit lane of b.
func LaneAt(b []byte, i int) int32 {
	return int32(binary.LittleEndian.Uint32(b[i*LaneBytes:]))
}

// SetLane writes the i-th 32-bit lane of b.
func SetLane(b []byte, i int, v int32) {
	binary.LittleEndian.PutUint32(b[i*LaneBytes:], uint32(v))
}

// wordBytes is the width the kernels step by: two lanes.
const wordBytes = 8

func word(b []byte) uint64       { return binary.LittleEndian.Uint64(b) }
func putWord(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// Lane masks within a word: lane 0 is the low half (little-endian).
const (
	loLane uint64 = 0x00000000_FFFFFFFF
	hiLane uint64 = 0xFFFFFFFF_00000000
)

// eq2 is the two-lane mask of x == y.
func eq2(x, y uint64) uint64 {
	var m uint64
	if uint32(x) == uint32(y) {
		m = loLane
	}
	if x>>32 == y>>32 {
		m |= hiLane
	}
	return m
}

// lt2 is the two-lane mask of x < y over signed lanes.
func lt2(x, y uint64) uint64 {
	var m uint64
	if int32(x) < int32(y) {
		m = loLane
	}
	if int32(x>>32) < int32(y>>32) {
		m |= hiLane
	}
	return m
}

// add2, sub2 and mul2 are lane-wise wrapping arithmetic on both halves.
func add2(x, y uint64) uint64 {
	return uint64(uint32(x)+uint32(y)) | uint64(uint32(x>>32)+uint32(y>>32))<<32
}

func sub2(x, y uint64) uint64 {
	return uint64(uint32(x)-uint32(y)) | uint64(uint32(x>>32)-uint32(y>>32))<<32
}

func mul2(x, y uint64) uint64 {
	return uint64(uint32(x)*uint32(y)) | uint64(uint32(x>>32)*uint32(y>>32))<<32
}

// laneWords computes d = x op y over whole words: len(d) is a multiple of
// wordBytes and x and y are at least as long.
func laneWords(k ALUKind, d, x, y []byte) {
	n := len(d)
	x, y = x[:n], y[:n]
	inv := invMask(k)
	switch k {
	case CmpEQ, CmpNE:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], eq2(word(x[i:i+wordBytes]), word(y[i:i+wordBytes]))^inv)
		}
	case CmpLT, CmpGE:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], lt2(word(x[i:i+wordBytes]), word(y[i:i+wordBytes]))^inv)
		}
	case CmpGT, CmpLE:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], lt2(word(y[i:i+wordBytes]), word(x[i:i+wordBytes]))^inv)
		}
	case And:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], word(x[i:i+wordBytes])&word(y[i:i+wordBytes]))
		}
	case Or:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], word(x[i:i+wordBytes])|word(y[i:i+wordBytes]))
		}
	case Xor:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], word(x[i:i+wordBytes])^word(y[i:i+wordBytes]))
		}
	case Add:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], add2(word(x[i:i+wordBytes]), word(y[i:i+wordBytes])))
		}
	case Sub:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], sub2(word(x[i:i+wordBytes]), word(y[i:i+wordBytes])))
		}
	case Mul:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], mul2(word(x[i:i+wordBytes]), word(y[i:i+wordBytes])))
		}
	default:
		badKind(k, n)
	}
}

// laneWordsImm is laneWords with every word of y equal to the splat word
// y: the immediate in both lanes.
func laneWordsImm(k ALUKind, d, x []byte, y uint64) {
	n := len(d)
	x = x[:n]
	inv := invMask(k)
	switch k {
	case CmpEQ, CmpNE:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], eq2(word(x[i:i+wordBytes]), y)^inv)
		}
	case CmpLT, CmpGE:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], lt2(word(x[i:i+wordBytes]), y)^inv)
		}
	case CmpGT, CmpLE:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], lt2(y, word(x[i:i+wordBytes]))^inv)
		}
	case And:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], word(x[i:i+wordBytes])&y)
		}
	case Or:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], word(x[i:i+wordBytes])|y)
		}
	case Xor:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], word(x[i:i+wordBytes])^y)
		}
	case Add:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], add2(word(x[i:i+wordBytes]), y))
		}
	case Sub:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], sub2(word(x[i:i+wordBytes]), y))
		}
	case Mul:
		for i := 0; i+wordBytes <= n; i += wordBytes {
			putWord(d[i:i+wordBytes], mul2(word(x[i:i+wordBytes]), y))
		}
	default:
		badKind(k, n)
	}
}

// invMask is all-ones for the kinds that run as their complement's loop
// with the mask inverted: NE, GE and LE.
func invMask(k ALUKind) uint64 {
	if k == CmpNE || k == CmpGE || k == CmpLE {
		return ^uint64(0)
	}
	return 0
}

// badKind panics on a kind that is no lane operation. Like a
// lane-at-a-time loop, an empty op never reads its kind.
func badKind(k ALUKind, n int) {
	if n > 0 {
		panic(fmt.Sprintf("isa: lane op with kind %s", k))
	}
}

// LaneOp computes dst = a op b lane-wise over n bytes. Compare kinds
// produce SIMD-style masks: all-ones lanes on match, zero lanes otherwise.
// dst may alias a or b. n must be lane-aligned and within all slices.
func LaneOp(k ALUKind, dst, a, b []byte, n int) {
	if n%LaneBytes != 0 {
		panic(fmt.Sprintf("isa: LaneOp size %d not lane aligned", n))
	}
	dst, a, b = dst[:n], a[:n], b[:n]
	w := n &^ (wordBytes - 1)
	laneWords(k, dst[:w], a[:w], b[:w])
	if w < n { // the trailing lane, as the low half of a zero-padded word
		var td, ta, tb [wordBytes]byte
		copy(ta[:], a[w:])
		copy(tb[:], b[w:])
		laneWords(k, td[:], ta[:], tb[:])
		copy(dst[w:], td[:])
	}
}

// LaneOpImm computes dst = a op imm lane-wise over n bytes.
func LaneOpImm(k ALUKind, dst, a []byte, imm int32, n int) {
	if n%LaneBytes != 0 {
		panic(fmt.Sprintf("isa: LaneOpImm size %d not lane aligned", n))
	}
	dst, a = dst[:n], a[:n]
	splat := uint64(uint32(imm)) * (1<<32 + 1) // imm in both lanes
	w := n &^ (wordBytes - 1)
	laneWordsImm(k, dst[:w], a[:w], splat)
	if w < n { // the trailing lane, as in LaneOp
		var td, ta [wordBytes]byte
		copy(ta[:], a[w:])
		laneWordsImm(k, td[:], ta[:], splat)
		copy(dst[w:], td[:])
	}
}

// LaneOpPattern computes dst = a op pattern lane-wise over n bytes, with
// the pattern tiled across the lanes (pattern[i % len(pattern)]). This is
// the semantics of an HMC CmpRead whose 16-byte immediate field holds
// per-lane constants.
func LaneOpPattern(k ALUKind, dst, a []byte, pattern []int32, n int) {
	if n%LaneBytes != 0 {
		panic(fmt.Sprintf("isa: LaneOpPattern size %d not lane aligned", n))
	}
	if len(pattern) == 0 {
		panic("isa: empty pattern")
	}
	var v [RegisterBytes]byte
	for off := 0; off < n; off += RegisterBytes {
		seg := min(n-off, RegisterBytes)
		for i := 0; i < seg/LaneBytes; i++ {
			SetLane(v[:], i, pattern[(off/LaneBytes+i)%len(pattern)])
		}
		LaneOp(k, dst[off:off+seg], a[off:off+seg], v[:seg], seg)
	}
}

// IsZero reports whether the first n bytes of b are all zero — the zero
// flag HIPE stores alongside every register write.
func IsZero(b []byte, n int) bool {
	b = b[:n]
	w := n &^ (wordBytes - 1)
	for i := 0; i+wordBytes <= w; i += wordBytes {
		if word(b[i:i+wordBytes]) != 0 {
			return false
		}
	}
	for _, v := range b[w:] {
		if v != 0 {
			return false
		}
	}
	return true
}

// MaskBytes reports the size of a compacted bitmask covering dataBytes of
// 32-bit lanes (one bit per lane, rounded up to whole bytes).
func MaskBytes(dataBytes uint32) uint32 {
	lanes := dataBytes / LaneBytes
	return (lanes + 7) / 8
}

// groupBytes is the lane data one mask byte covers: eight lanes.
const groupBytes = 8 * LaneBytes

// nz2 is the two mask bits of a word's lanes: bit 0 for the low lane.
func nz2(x uint64) byte {
	var m byte
	if uint32(x) != 0 {
		m = 1
	}
	if x>>32 != 0 {
		m |= 2
	}
	return m
}

// maskByte packs the eight lanes of g (groupBytes long) into one mask
// byte, LSB-first.
func maskByte(g []byte) byte {
	g = g[:groupBytes]
	return nz2(word(g[0:8])) | nz2(word(g[8:16]))<<2 |
		nz2(word(g[16:24]))<<4 | nz2(word(g[24:32]))<<6
}

// mask2 expands the low two bits of b into a two-lane mask.
func mask2(b byte) uint64 {
	return uint64(-(uint32(b) & 1)) | uint64(-(uint32(b>>1)&1))<<32
}

// expandByte writes the eight lanes of mask byte b into g (groupBytes
// long).
func expandByte(g []byte, b byte) {
	g = g[:groupBytes]
	putWord(g[0:8], mask2(b))
	putWord(g[8:16], mask2(b>>2))
	putWord(g[16:24], mask2(b>>4))
	putWord(g[24:32], mask2(b>>6))
}

// CompactMask converts SIMD lane masks (from compare ops) into a packed
// bitmask, one bit per lane, LSB-first — the representation the paper's
// column-at-a-time scan stores as its intermediate result.
func CompactMask(dst, lanesrc []byte, dataBytes int) {
	if dataBytes%LaneBytes != 0 {
		panic(fmt.Sprintf("isa: CompactMask size %d not lane aligned", dataBytes))
	}
	src := lanesrc[:dataBytes]
	out := dst[:MaskBytes(uint32(dataBytes))]
	full := dataBytes / groupBytes
	for j := 0; j < full; j++ {
		out[j] = maskByte(src[j*groupBytes : (j+1)*groupBytes])
	}
	if full < len(out) {
		// Fewer than eight lanes left: pack them zero-padded.
		var g [groupBytes]byte
		copy(g[:], src[full*groupBytes:])
		out[full] = maskByte(g[:])
	}
}

// ExpandMask is the inverse of CompactMask: packed bits to lane masks.
func ExpandMask(dst, packed []byte, dataBytes int) {
	if dataBytes%LaneBytes != 0 {
		panic(fmt.Sprintf("isa: ExpandMask size %d not lane aligned", dataBytes))
	}
	d := dst[:dataBytes]
	p := packed[:MaskBytes(uint32(dataBytes))]
	full := dataBytes / groupBytes
	for j := 0; j < full; j++ {
		expandByte(d[j*groupBytes:(j+1)*groupBytes], p[j])
	}
	if full < len(p) {
		// Fewer than eight lanes left: expand the byte, keep its lanes.
		var g [groupBytes]byte
		expandByte(g[:], p[full])
		copy(d[full*groupBytes:], g[:])
	}
}

// PopcountMask counts set bits in a packed bitmask.
func PopcountMask(packed []byte) int {
	n := 0
	for _, b := range packed {
		for ; b != 0; b &= b - 1 {
			n++
		}
	}
	return n
}
