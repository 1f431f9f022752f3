package isa

import "fmt"

// The lane-at-a-time kernels the word-wide ones in lanes.go replaced,
// kept as the reference that lanes_test.go checks them against byte for
// byte: every lane goes through encoding/binary (LaneAt, SetLane) and a
// per-lane switch on the ALU kind.

// refCompare applies a scalar compare.
func refCompare(k ALUKind, a, b int32) bool {
	switch k {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	default:
		panic(fmt.Sprintf("isa: compare1 with non-compare kind %s", k))
	}
}

// refArith applies a scalar arithmetic/logic op.
func refArith(k ALUKind, a, b int32) int32 {
	switch k {
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	default:
		panic(fmt.Sprintf("isa: arith1 with kind %s", k))
	}
}

func refLaneOp(k ALUKind, dst, a, b []byte, n int) {
	if n%LaneBytes != 0 {
		panic(fmt.Sprintf("isa: LaneOp size %d not lane aligned", n))
	}
	lanes := n / LaneBytes
	if k.IsCompare() {
		for i := 0; i < lanes; i++ {
			if refCompare(k, LaneAt(a, i), LaneAt(b, i)) {
				SetLane(dst, i, -1)
			} else {
				SetLane(dst, i, 0)
			}
		}
		return
	}
	for i := 0; i < lanes; i++ {
		SetLane(dst, i, refArith(k, LaneAt(a, i), LaneAt(b, i)))
	}
}

func refLaneOpImm(k ALUKind, dst, a []byte, imm int32, n int) {
	if n%LaneBytes != 0 {
		panic(fmt.Sprintf("isa: LaneOpImm size %d not lane aligned", n))
	}
	lanes := n / LaneBytes
	if k.IsCompare() {
		for i := 0; i < lanes; i++ {
			if refCompare(k, LaneAt(a, i), imm) {
				SetLane(dst, i, -1)
			} else {
				SetLane(dst, i, 0)
			}
		}
		return
	}
	for i := 0; i < lanes; i++ {
		SetLane(dst, i, refArith(k, LaneAt(a, i), imm))
	}
}

func refLaneOpPattern(k ALUKind, dst, a []byte, pattern []int32, n int) {
	if n%LaneBytes != 0 {
		panic(fmt.Sprintf("isa: LaneOpPattern size %d not lane aligned", n))
	}
	if len(pattern) == 0 {
		panic("isa: empty pattern")
	}
	lanes := n / LaneBytes
	if k.IsCompare() {
		for i := 0; i < lanes; i++ {
			if refCompare(k, LaneAt(a, i), pattern[i%len(pattern)]) {
				SetLane(dst, i, -1)
			} else {
				SetLane(dst, i, 0)
			}
		}
		return
	}
	for i := 0; i < lanes; i++ {
		SetLane(dst, i, refArith(k, LaneAt(a, i), pattern[i%len(pattern)]))
	}
}

func refIsZero(b []byte, n int) bool {
	for _, v := range b[:n] {
		if v != 0 {
			return false
		}
	}
	return true
}

func refCompactMask(dst, lanesrc []byte, dataBytes int) {
	if dataBytes%LaneBytes != 0 {
		panic(fmt.Sprintf("isa: CompactMask size %d not lane aligned", dataBytes))
	}
	lanes := dataBytes / LaneBytes
	for i := range dst[:MaskBytes(uint32(dataBytes))] {
		dst[i] = 0
	}
	for i := 0; i < lanes; i++ {
		if LaneAt(lanesrc, i) != 0 {
			dst[i/8] |= 1 << (i % 8)
		}
	}
}

func refExpandMask(dst, packed []byte, dataBytes int) {
	if dataBytes%LaneBytes != 0 {
		panic(fmt.Sprintf("isa: ExpandMask size %d not lane aligned", dataBytes))
	}
	lanes := dataBytes / LaneBytes
	for i := 0; i < lanes; i++ {
		if packed[i/8]&(1<<(i%8)) != 0 {
			SetLane(dst, i, -1)
		} else {
			SetLane(dst, i, 0)
		}
	}
}
