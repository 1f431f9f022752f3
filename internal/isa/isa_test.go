package isa

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/hipe-sim/hipe/internal/mem"
)

func TestOpClassStrings(t *testing.T) {
	if IntALU.String() != "int-alu" || Offload.String() != "offload" {
		t.Fatal("op class strings wrong")
	}
	if !strings.Contains(OpClass(200).String(), "200") {
		t.Fatal("unknown class string")
	}
}

func TestMicroOpIsMem(t *testing.T) {
	for _, c := range []OpClass{Load, Store, Offload} {
		if !(&MicroOp{Class: c}).IsMem() {
			t.Errorf("%s not mem", c)
		}
	}
	for _, c := range []OpClass{Nop, IntALU, Branch, VecCmp} {
		if (&MicroOp{Class: c}).IsMem() {
			t.Errorf("%s is mem", c)
		}
	}
}

func TestTargetAndOpStrings(t *testing.T) {
	if TargetHMC.String() != "hmc" || TargetHIVE.String() != "hive" || TargetHIPE.String() != "hipe" {
		t.Fatal("target strings")
	}
	if VLoad.String() != "vload" || CompareSwap.String() != "cas" {
		t.Fatal("op strings")
	}
	if CmpGE.String() != "cmpge" || Mul.String() != "mul" {
		t.Fatal("alu strings")
	}
	if !strings.Contains(Target(9).String(), "9") ||
		!strings.Contains(OffloadOp(99).String(), "99") ||
		!strings.Contains(ALUKind(99).String(), "99") {
		t.Fatal("unknown enum strings")
	}
}

func TestPredicateString(t *testing.T) {
	if (Predicate{}).String() != "" {
		t.Fatal("invalid predicate renders")
	}
	p := Predicate{Valid: true, Reg: 3}
	if p.String() != "@nz(r3)" {
		t.Fatalf("pred = %q", p.String())
	}
	p.WhenZero = true
	if p.String() != "@z(r3)" {
		t.Fatalf("pred = %q", p.String())
	}
}

func validVLoad() OffloadInst {
	return OffloadInst{Target: TargetHIVE, Op: VLoad, Dst: 1, Addr: 0x100, Size: 256}
}

func TestValidateAccepts(t *testing.T) {
	cases := []OffloadInst{
		{Target: TargetHIVE, Op: Lock},
		{Target: TargetHIVE, Op: Unlock},
		validVLoad(),
		{Target: TargetHIVE, Op: VStore, Src1: 2, Addr: 0x40, Size: 64},
		{Target: TargetHIVE, Op: VMaskStore, Src1: 2, Addr: 0x40, Size: 256},
		{Target: TargetHIVE, Op: VALU, ALU: CmpGE, Dst: 2, Src1: 1, UseImm: true, Imm: 5},
		{Target: TargetHIPE, Op: VLoad, Dst: 1, Size: 128, Pred: Predicate{Valid: true, Reg: 2}},
		{Target: TargetHMC, Op: CmpRead, ALU: CmpLT, Addr: 0x200, Size: 256, Imm: 9},
		{Target: TargetHMC, Op: AddImm, Addr: 0, Size: 16, Imm: 1},
		{Target: TargetHMC, Op: CompareSwap, Addr: 0, Imm: 1, Imm2: 2},
	}
	for i, in := range cases {
		in := in
		if err := in.Validate(); err != nil {
			t.Errorf("case %d (%s): %v", i, in.String(), err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []OffloadInst{
		{Target: TargetHMC, Op: VLoad, Size: 64},                                         // vload on HMC
		{Target: TargetHIVE, Op: CmpRead, ALU: CmpEQ, Size: 64},                          // cmpread on HIVE
		{Target: TargetHIVE, Op: VLoad, Size: 0},                                         // zero size
		{Target: TargetHIVE, Op: VLoad, Size: 512},                                       // > register
		{Target: TargetHIVE, Op: VLoad, Size: 6},                                         // not lane aligned
		{Target: TargetHIVE, Op: VALU},                                                   // no ALU kind
		{Target: TargetHMC, Op: CmpRead, ALU: Add, Size: 64},                             // non-compare cmpread
		{Target: TargetHMC, Op: CmpRead, ALU: CmpEQ, Size: 0},                            // bad size
		{Target: TargetHIVE, Op: VLoad, Size: 64, Pred: Predicate{Valid: true}},          // pred on HIVE
		{Target: TargetHIPE, Op: VLoad, Size: 64, Pred: Predicate{Valid: true, Reg: 40}}, // pred reg range
		{Target: TargetHIPE, Op: Lock, Pred: Predicate{Valid: true}},                     // predicated lock
		{Target: TargetHIVE, Op: VLoad, Size: 64, Dst: 36},                               // reg out of range
		{Target: TargetHIVE, Op: OffloadOp(99)},                                          // unknown op
	}
	for i, in := range cases {
		in := in
		if err := in.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, in)
		}
	}
}

func TestDisassembly(t *testing.T) {
	in := OffloadInst{Target: TargetHIPE, Op: VLoad, Dst: 3, Addr: 0x1000, Size: 256,
		Pred: Predicate{Valid: true, Reg: 1}}
	want := "hipe vload r3, [0x1000], 256B @nz(r1)"
	if got := in.String(); got != want {
		t.Fatalf("disasm = %q, want %q", got, want)
	}
	alu := OffloadInst{Target: TargetHIVE, Op: VALU, ALU: And, Dst: 2, Src1: 1, Src2: 0}
	if got := alu.String(); got != "hive valu.and r2, r1, r0" {
		t.Fatalf("disasm = %q", got)
	}
	imm := OffloadInst{Target: TargetHIVE, Op: VALU, ALU: CmpGE, Dst: 2, Src1: 1, UseImm: true, Imm: 7}
	if got := imm.String(); got != "hive valu.cmpge r2, r1, #7" {
		t.Fatalf("disasm = %q", got)
	}
	cr := OffloadInst{Target: TargetHMC, Op: CmpRead, ALU: CmpLT, Addr: 0x40, Imm: 9, Size: 64}
	if got := cr.String(); got != "hmc cmpread.cmplt [0x40], #9, 64B" {
		t.Fatalf("disasm = %q", got)
	}
	st := OffloadInst{Target: TargetHIVE, Op: VStore, Src1: 5, Addr: 0x80, Size: 128}
	if got := st.String(); got != "hive vstore [0x80], r5, 128B" {
		t.Fatalf("disasm = %q", got)
	}
	ai := OffloadInst{Target: TargetHMC, Op: AddImm, Addr: 0x10, Imm: 3, Size: 16}
	if got := ai.String(); got != "hmc addimm [0x10], #3, 16B" {
		t.Fatalf("disasm = %q", got)
	}
	cas := OffloadInst{Target: TargetHMC, Op: CompareSwap, Addr: 0, Imm: 1, Imm2: 2}
	if got := cas.String(); got != "hmc cas [0x0], #1 -> #2" {
		t.Fatalf("disasm = %q", got)
	}
	lk := OffloadInst{Target: TargetHIVE, Op: Lock}
	if got := lk.String(); got != "hive lock" {
		t.Fatalf("disasm = %q", got)
	}
}

func TestLaneAccessors(t *testing.T) {
	b := make([]byte, 16)
	SetLane(b, 0, -7)
	SetLane(b, 3, 123456)
	if LaneAt(b, 0) != -7 || LaneAt(b, 3) != 123456 || LaneAt(b, 1) != 0 {
		t.Fatal("lane accessors wrong")
	}
}

func TestLaneOpCompare(t *testing.T) {
	a := make([]byte, 16)
	c := make([]byte, 16)
	dst := make([]byte, 16)
	for i, v := range []int32{1, 5, 5, 9} {
		SetLane(a, i, v)
	}
	for i, v := range []int32{5, 5, 5, 5} {
		SetLane(c, i, v)
	}
	LaneOp(CmpGE, dst, a, c, 16)
	want := []int32{0, -1, -1, -1}
	for i, w := range want {
		if LaneAt(dst, i) != w {
			t.Fatalf("lane %d = %d, want %d", i, LaneAt(dst, i), w)
		}
	}
	LaneOp(CmpLT, dst, a, c, 16)
	if LaneAt(dst, 0) != -1 || LaneAt(dst, 1) != 0 {
		t.Fatal("cmplt wrong")
	}
	LaneOp(CmpEQ, dst, a, c, 16)
	if LaneAt(dst, 0) != 0 || LaneAt(dst, 1) != -1 {
		t.Fatal("cmpeq wrong")
	}
	LaneOp(CmpNE, dst, a, c, 16)
	if LaneAt(dst, 0) != -1 || LaneAt(dst, 1) != 0 {
		t.Fatal("cmpne wrong")
	}
	LaneOp(CmpLE, dst, a, c, 16)
	if LaneAt(dst, 3) != 0 || LaneAt(dst, 2) != -1 {
		t.Fatal("cmple wrong")
	}
	LaneOp(CmpGT, dst, a, c, 16)
	if LaneAt(dst, 3) != -1 || LaneAt(dst, 2) != 0 {
		t.Fatal("cmpgt wrong")
	}
}

func TestLaneOpArith(t *testing.T) {
	a := make([]byte, 8)
	b := make([]byte, 8)
	dst := make([]byte, 8)
	SetLane(a, 0, 6)
	SetLane(a, 1, -4)
	SetLane(b, 0, 3)
	SetLane(b, 1, 5)
	LaneOp(Add, dst, a, b, 8)
	if LaneAt(dst, 0) != 9 || LaneAt(dst, 1) != 1 {
		t.Fatal("add wrong")
	}
	LaneOp(Sub, dst, a, b, 8)
	if LaneAt(dst, 0) != 3 || LaneAt(dst, 1) != -9 {
		t.Fatal("sub wrong")
	}
	LaneOp(Mul, dst, a, b, 8)
	if LaneAt(dst, 0) != 18 || LaneAt(dst, 1) != -20 {
		t.Fatal("mul wrong")
	}
	LaneOp(And, dst, a, b, 8)
	if LaneAt(dst, 0) != 6&3 {
		t.Fatal("and wrong")
	}
	LaneOp(Or, dst, a, b, 8)
	if LaneAt(dst, 0) != 6|3 {
		t.Fatal("or wrong")
	}
	LaneOp(Xor, dst, a, b, 8)
	if LaneAt(dst, 0) != 6^3 {
		t.Fatal("xor wrong")
	}
}

func TestLaneOpImm(t *testing.T) {
	a := make([]byte, 12)
	dst := make([]byte, 12)
	for i, v := range []int32{2, 24, 50} {
		SetLane(a, i, v)
	}
	LaneOpImm(CmpLT, dst, a, 24, 12)
	if LaneAt(dst, 0) != -1 || LaneAt(dst, 1) != 0 || LaneAt(dst, 2) != 0 {
		t.Fatal("cmplt imm wrong")
	}
	LaneOpImm(Add, dst, a, 10, 12)
	if LaneAt(dst, 2) != 60 {
		t.Fatal("add imm wrong")
	}
}

func TestLaneOpAliasing(t *testing.T) {
	a := make([]byte, 8)
	SetLane(a, 0, 4)
	SetLane(a, 1, 9)
	LaneOpImm(Add, a, a, 1, 8) // dst aliases src
	if LaneAt(a, 0) != 5 || LaneAt(a, 1) != 10 {
		t.Fatal("aliased lane op wrong")
	}
}

func TestLaneOpPanics(t *testing.T) {
	a := make([]byte, 8)
	for _, f := range []func(){
		func() { LaneOp(Add, a, a, a, 6) },
		func() { LaneOpImm(Add, a, a, 1, 7) },
		func() { LaneOp(ALUNone, a, a, a, 8) },
		func() { LaneOpImm(ALUNone, a, a, 1, 4) },
		func() { CompactMask(a, a, 5) },
		func() { ExpandMask(a, a, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestIsZero(t *testing.T) {
	b := make([]byte, 64)
	if !IsZero(b, 64) {
		t.Fatal("zero buffer not zero")
	}
	b[63] = 1
	if IsZero(b, 64) {
		t.Fatal("nonzero buffer reported zero")
	}
	if !IsZero(b, 63) {
		t.Fatal("prefix should be zero")
	}
}

func TestMaskBytes(t *testing.T) {
	if MaskBytes(256) != 8 {
		t.Fatalf("MaskBytes(256) = %d", MaskBytes(256))
	}
	if MaskBytes(16) != 1 {
		t.Fatalf("MaskBytes(16) = %d", MaskBytes(16))
	}
	if MaskBytes(4) != 1 {
		t.Fatalf("MaskBytes(4) = %d", MaskBytes(4))
	}
}

func TestCompactExpandRoundTrip(t *testing.T) {
	f := func(pattern []bool) bool {
		n := len(pattern)
		if n == 0 || n > 64 {
			n = 8
		}
		lanes := make([]byte, n*4)
		for i := 0; i < n; i++ {
			if i < len(pattern) && pattern[i] {
				SetLane(lanes, i, -1)
			}
		}
		packed := make([]byte, MaskBytes(uint32(n*4)))
		CompactMask(packed, lanes, n*4)
		expanded := make([]byte, n*4)
		ExpandMask(expanded, packed, n*4)
		// Expanded must equal canonical lanes.
		for i := 0; i < n; i++ {
			want := int32(0)
			if i < len(pattern) && pattern[i] {
				want = -1
			}
			if LaneAt(expanded, i) != want {
				return false
			}
		}
		// Popcount must equal number of true lanes used.
		count := 0
		for i := 0; i < n && i < len(pattern); i++ {
			if pattern[i] {
				count++
			}
		}
		return PopcountMask(packed) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactMaskClearsDst(t *testing.T) {
	lanes := make([]byte, 32)
	packed := []byte{0xFF}
	CompactMask(packed, lanes, 32)
	if packed[0] != 0 {
		t.Fatal("CompactMask did not clear stale bits")
	}
}

func TestMicroOpAddrField(t *testing.T) {
	u := MicroOp{Class: Load, Addr: mem.Addr(0x40), Size: 8}
	if u.Addr != 0x40 || !u.IsMem() {
		t.Fatal("addr field")
	}
}

// TestMicroOpIs48Bytes pins the µop's size. Every µop is copied through
// the core's fetch and decode buffers into its ROB entry, and every µop
// stream owns a block buffer of them; serve-fleet's streams alone hold
// about 13.6 MB of µop blocks per pass. Carrying the 64-byte offload
// instruction inside the µop instead of behind a pointer would make it
// 120 bytes and add about 20 MB per serve-fleet pass, more than the
// instructions it stops allocating save — so the instruction stays
// behind Offload, copied at each hand-off instead.
func TestMicroOpIs48Bytes(t *testing.T) {
	if got := unsafe.Sizeof(MicroOp{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(MicroOp{}) = %d, want 48", got)
	}
}
