package isa

// Equivalence tests for the word-wide lane kernels: each one is checked
// byte for byte against the lane-at-a-time reference in
// lanes_ref_test.go over every ALU kind, every size up to a register
// (sizes that are not whole words included), aliased and separate
// destinations, and seeded lane values plus the int32 extremes. A kernel
// must panic exactly where the reference does: on sizes that are not
// lane aligned and on kinds that are no lane operation.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specialLanes are the values a lane-wise kernel most easily gets wrong:
// the signed extremes, zero and all-ones.
var specialLanes = []int32{math.MinInt32, math.MaxInt32, 0, -1, 1, math.MinInt32 + 1, math.MaxInt32 - 1}

// randLane draws a special value, a small value (so compares hit equal
// lanes often) or a uniform 32-bit value.
func randLane(rng *rand.Rand) int32 {
	switch rng.Intn(3) {
	case 0:
		return specialLanes[rng.Intn(len(specialLanes))]
	case 1:
		return int32(rng.Intn(7) - 3)
	default:
		return int32(rng.Uint32())
	}
}

// laneBuf returns a buffer of n lane bytes plus a guard word, every lane
// drawn by randLane.
func laneBuf(rng *rand.Rand, n int) []byte {
	b := make([]byte, n+wordBytes)
	for i := 0; i+LaneBytes <= len(b); i += LaneBytes {
		SetLane(b, i/LaneBytes, randLane(rng))
	}
	return b
}

// panics runs f and reports whether it panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// allKinds is every ALU kind plus one past the last, which like ALUNone
// is not a lane operation.
func allKinds() []ALUKind {
	var ks []ALUKind
	for k := ALUNone; k <= Mul+1; k++ {
		ks = append(ks, k)
	}
	return ks
}

// checkSame runs a kernel and its reference on identical copies of the
// same operands and fails unless both panic, or neither does and they
// leave identical bytes in every operand.
func checkSame(t *testing.T, what string, bufs [][]byte, kernel, ref func(bufs [][]byte)) {
	t.Helper()
	got := make([][]byte, len(bufs))
	want := make([][]byte, len(bufs))
	for i, b := range bufs {
		got[i] = bytes.Clone(b)
		want[i] = bytes.Clone(b)
	}
	gp := panics(func() { kernel(got) })
	wp := panics(func() { ref(want) })
	if gp != wp {
		t.Fatalf("%s: kernel panicked %t, reference panicked %t", what, gp, wp)
	}
	if gp {
		return
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: operand %d\n got % x\nwant % x", what, i, got[i], want[i])
		}
	}
}

// aliasings names how the destination relates to the sources: a
// separate buffer, the first source or the second source.
var aliasings = []string{"separate", "dst=a", "dst=b"}

func TestLaneOpMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range allKinds() {
		for n := 0; n <= RegisterBytes; n++ {
			for _, alias := range aliasings {
				for rep := 0; rep < 4; rep++ {
					bufs := [][]byte{laneBuf(rng, n), laneBuf(rng, n), laneBuf(rng, n)}
					if rep == 0 {
						copy(bufs[2], bufs[1]) // every lane equal
					}
					run := func(op func(k ALUKind, dst, a, b []byte, n int)) func([][]byte) {
						return func(bs [][]byte) {
							dst, a, b := bs[0], bs[1], bs[2]
							switch alias {
							case "dst=a":
								dst = a
							case "dst=b":
								dst = b
							}
							op(k, dst, a, b, n)
						}
					}
					what := fmt.Sprintf("LaneOp(%s, %d B, %s, rep %d)", k, n, alias, rep)
					checkSame(t, what, bufs, run(LaneOp), run(refLaneOp))
				}
			}
		}
	}
}

func TestLaneOpImmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range allKinds() {
		for n := 0; n <= RegisterBytes; n++ {
			for _, aliased := range []bool{false, true} {
				imms := append([]int32{randLane(rng), randLane(rng)}, specialLanes...)
				for _, imm := range imms {
					bufs := [][]byte{laneBuf(rng, n), laneBuf(rng, n)}
					run := func(op func(k ALUKind, dst, a []byte, imm int32, n int)) func([][]byte) {
						return func(bs [][]byte) {
							dst := bs[0]
							if aliased {
								dst = bs[1]
							}
							op(k, dst, bs[1], imm, n)
						}
					}
					what := fmt.Sprintf("LaneOpImm(%s, %d B, imm %d, aliased %t)", k, n, imm, aliased)
					checkSame(t, what, bufs, run(LaneOpImm), run(refLaneOpImm))
				}
			}
		}
	}
}

func TestLaneOpPatternMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range allKinds() {
		for n := 0; n <= RegisterBytes; n++ {
			for plen := 1; plen <= 4; plen++ {
				for _, aliased := range []bool{false, true} {
					pattern := make([]int32, plen)
					for i := range pattern {
						pattern[i] = randLane(rng)
					}
					bufs := [][]byte{laneBuf(rng, n), laneBuf(rng, n)}
					run := func(op func(k ALUKind, dst, a []byte, pattern []int32, n int)) func([][]byte) {
						return func(bs [][]byte) {
							dst := bs[0]
							if aliased {
								dst = bs[1]
							}
							op(k, dst, bs[1], pattern, n)
						}
					}
					what := fmt.Sprintf("LaneOpPattern(%s, %d B, pattern %v, aliased %t)", k, n, pattern, aliased)
					checkSame(t, what, bufs, run(LaneOpPattern), run(refLaneOpPattern))
				}
			}
		}
	}
}

// TestLaneOpPatternLongOperand covers ops longer than one register,
// where the tiled operand is rebuilt per register and a pattern that
// does not divide 64 lanes must carry its phase across.
func TestLaneOpPatternLongOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{RegisterBytes + LaneBytes, 3*RegisterBytes + 12} {
		for _, k := range []ALUKind{CmpGE, Add, Xor} {
			pattern := []int32{randLane(rng), randLane(rng), randLane(rng)}
			bufs := [][]byte{laneBuf(rng, n), laneBuf(rng, n)}
			checkSame(t, fmt.Sprintf("LaneOpPattern(%s, %d B)", k, n), bufs,
				func(bs [][]byte) { LaneOpPattern(k, bs[0], bs[1], pattern, n) },
				func(bs [][]byte) { refLaneOpPattern(k, bs[0], bs[1], pattern, n) })
			imm := randLane(rng)
			checkSame(t, fmt.Sprintf("LaneOpImm(%s, %d B)", k, n), bufs,
				func(bs [][]byte) { LaneOpImm(k, bs[0], bs[1], imm, n) },
				func(bs [][]byte) { refLaneOpImm(k, bs[0], bs[1], imm, n) })
		}
	}
}

func TestIsZeroMatchesReference(t *testing.T) {
	// Every size, lane-aligned or not, with one non-zero byte at every
	// position up to and past the size.
	for n := 0; n <= RegisterBytes; n++ {
		for at := 0; at <= n; at++ {
			b := make([]byte, RegisterBytes+1)
			b[at] = 0x80
			if got, want := IsZero(b, n), refIsZero(b, n); got != want {
				t.Fatalf("IsZero(%d B, byte %d set) = %t, want %t", n, at, got, want)
			}
		}
	}
}

func TestCompactExpandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= RegisterBytes; n++ {
		for rep := 0; rep < 8; rep++ {
			// Compare-style masks, or arbitrary lanes (any non-zero lane
			// sets its bit).
			lanes := laneBuf(rng, n)
			if rep%2 == 0 {
				for i := 0; i < n/LaneBytes; i++ {
					SetLane(lanes, i, -int32(rng.Intn(2)))
				}
			}
			nb := int(MaskBytes(uint32(n)))
			packed := make([]byte, nb+1)
			rng.Read(packed) // stale bits CompactMask must overwrite
			checkSame(t, fmt.Sprintf("CompactMask(%d B, rep %d)", n, rep), [][]byte{packed, lanes},
				func(bs [][]byte) { CompactMask(bs[0], bs[1], n) },
				func(bs [][]byte) { refCompactMask(bs[0], bs[1], n) })

			// Random packed bytes, including bits past the last lane.
			expanded := laneBuf(rng, n)
			checkSame(t, fmt.Sprintf("ExpandMask(%d B, rep %d)", n, rep), [][]byte{expanded, packed},
				func(bs [][]byte) { ExpandMask(bs[0], bs[1], n) },
				func(bs [][]byte) { refExpandMask(bs[0], bs[1], n) })

			// Round trip: compacting then expanding gives canonical masks.
			if n%LaneBytes != 0 {
				continue
			}
			CompactMask(packed, lanes, n)
			ExpandMask(expanded, packed, n)
			for i := 0; i < n/LaneBytes; i++ {
				want := int32(0)
				if LaneAt(lanes, i) != 0 {
					want = -1
				}
				if got := LaneAt(expanded, i); got != want {
					t.Fatalf("round trip %d B rep %d: lane %d = %d, want %d", n, rep, i, got, want)
				}
			}
		}
	}
}

// Register-sized microbenchmarks, each against the lane-at-a-time
// reference. CI's bench smoke runs every one once.

func benchOperands() (dst, a, b []byte) {
	rng := rand.New(rand.NewSource(6))
	return laneBuf(rng, RegisterBytes), laneBuf(rng, RegisterBytes), laneBuf(rng, RegisterBytes)
}

func BenchmarkLaneOp(b *testing.B) {
	dst, x, y := benchOperands()
	for _, k := range []ALUKind{CmpGE, And, Add} {
		b.Run(k.String(), func(b *testing.B) {
			for b.Loop() {
				LaneOp(k, dst, x, y, RegisterBytes)
			}
		})
		b.Run(k.String()+"/ref", func(b *testing.B) {
			for b.Loop() {
				refLaneOp(k, dst, x, y, RegisterBytes)
			}
		})
	}
}

func BenchmarkLaneOpImm(b *testing.B) {
	dst, x, _ := benchOperands()
	b.Run("kernel", func(b *testing.B) {
		for b.Loop() {
			LaneOpImm(CmpLT, dst, x, 24, RegisterBytes)
		}
	})
	b.Run("ref", func(b *testing.B) {
		for b.Loop() {
			refLaneOpImm(CmpLT, dst, x, 24, RegisterBytes)
		}
	})
}

func BenchmarkIsZero(b *testing.B) {
	zero := make([]byte, RegisterBytes) // the whole register is scanned
	b.Run("kernel", func(b *testing.B) {
		for b.Loop() {
			IsZero(zero, RegisterBytes)
		}
	})
	b.Run("ref", func(b *testing.B) {
		for b.Loop() {
			refIsZero(zero, RegisterBytes)
		}
	})
}

func BenchmarkCompactMask(b *testing.B) {
	_, lanes, _ := benchOperands()
	packed := make([]byte, MaskBytes(RegisterBytes))
	b.Run("kernel", func(b *testing.B) {
		for b.Loop() {
			CompactMask(packed, lanes, RegisterBytes)
		}
	})
	b.Run("ref", func(b *testing.B) {
		for b.Loop() {
			refCompactMask(packed, lanes, RegisterBytes)
		}
	})
}
