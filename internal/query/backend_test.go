package query

import (
	"reflect"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
)

func TestRegistryNames(t *testing.T) {
	want := []string{"x86", "hmc", "hive", "hipe"}
	if got := BackendNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BackendNames() = %v, want %v", got, want)
	}
	for _, b := range Backends() {
		a, ok := ParseArch(b.Name())
		if !ok || a != b.Arch() {
			t.Errorf("ParseArch(%q) = %v, %t; want %v", b.Name(), a, ok, b.Arch())
		}
	}
	if a, ok := ParseArch("auto"); !ok || a != ArchAuto {
		t.Errorf("ParseArch(auto) = %v, %t", a, ok)
	}
	if _, ok := ParseArch("riscv"); ok {
		t.Error("ParseArch accepted an unregistered name")
	}
	if ArchAuto.String() != "auto" {
		t.Errorf("ArchAuto.String() = %q", ArchAuto)
	}
	// Each row of the table sits at its own architecture's index.
	for i := range backends {
		a := Arch(i)
		if b, ok := BackendFor(a); !ok || b.Arch() != a || b.Name() != a.String() {
			t.Errorf("BackendFor(%v) = %v/%q, %t", a, b.Arch(), b.Name(), ok)
		}
	}
	if _, ok := BackendFor(ArchAuto); ok {
		t.Error("BackendFor(ArchAuto) reported a backend")
	}
	// Backends hands out a copy: writing into it leaves the table intact.
	bs := Backends()
	bs[0] = bs[3]
	if b, _ := BackendFor(X86); b.Arch() != X86 || b.Caps().MaxOpSize != 64 {
		t.Errorf("writing into Backends() changed the table's x86 row to %v", b.Arch())
	}
	if got := Backends(); got[0].Arch() != X86 {
		t.Errorf("Backends()[0] = %v after a caller's write, want x86", got[0].Arch())
	}
}

// TestCapsMatchValidate pins the capability reports to the validation
// rules: a plan inside a backend's reported envelope must validate, and
// a plan outside it must not.
func TestCapsMatchValidate(t *testing.T) {
	for _, b := range Backends() {
		caps := b.Caps()
		for _, strat := range []Strategy{TupleAtATime, ColumnAtATime} {
			for _, op := range []uint32{16, 32, 64, 128, 256} {
				for _, unroll := range []int{1, 8, 32} {
					for _, fused := range []bool{false, true} {
						for _, agg := range []bool{false, true} {
							p := Plan{Arch: b.Arch(), Strategy: strat, OpSize: op,
								Unroll: unroll, Fused: fused, Aggregate: agg, Q: db.DefaultQ06()}
							inCaps := caps.Supports(strat) &&
								op <= caps.MaxOpSize && unroll <= caps.MaxUnroll &&
								(!fused || (caps.Fused && strat == ColumnAtATime)) &&
								(!agg || caps.Aggregate)
							err := p.Validate()
							if inCaps && err != nil {
								t.Errorf("%s: inside %s caps but Validate: %v", p, b.Name(), err)
							}
							if !inCaps && err == nil {
								t.Errorf("%s: outside %s caps but validates", p, b.Name())
							}
						}
					}
				}
			}
		}
	}
}

func TestAutoCandidates(t *testing.T) {
	auto := Plan{Arch: ArchAuto, Strategy: ColumnAtATime, OpSize: 256, Unroll: 32, Q: db.DefaultQ06()}
	archsOf := func(plans []Plan) []Arch {
		out := make([]Arch, len(plans))
		for i, p := range plans {
			out[i] = p.Arch
		}
		return out
	}
	// 256 B column: every cube backend, x86 excluded by its 64 B cap.
	if got := archsOf(auto.Candidates(4096)); !reflect.DeepEqual(got, []Arch{HMC, HIVE, HIPE}) {
		t.Errorf("256B column candidates = %v", got)
	}
	// 64 B / unroll 8: all four backends qualify.
	small := auto
	small.OpSize, small.Unroll = 64, 8
	if got := archsOf(small.Candidates(4096)); !reflect.DeepEqual(got, []Arch{X86, HMC, HIVE, HIPE}) {
		t.Errorf("64B column candidates = %v", got)
	}
	// Tuple-at-a-time excludes HIPE (column-only backend).
	tup := auto
	tup.Strategy = TupleAtATime
	if got := archsOf(tup.Candidates(4096)); !reflect.DeepEqual(got, []Arch{HMC, HIVE}) {
		t.Errorf("256B tuple candidates = %v", got)
	}
	if err := auto.ValidateFor(4096); err != nil {
		t.Errorf("auto plan with candidates failed ValidateFor: %v", err)
	}
	// An auto plan no backend admits must not validate.
	bad := auto
	bad.Strategy = TupleAtATime
	bad.Aggregate = true
	if err := bad.Validate(); err == nil {
		t.Error("auto plan outside every envelope validated")
	}
}

func TestPrepareRejectsAuto(t *testing.T) {
	p := Plan{Arch: ArchAuto, Strategy: ColumnAtATime, OpSize: 256, Unroll: 32, Q: db.DefaultQ06()}
	if _, err := Prepare(nil, nil, p); err == nil {
		t.Fatal("Prepare accepted an unresolved auto plan")
	}
}
