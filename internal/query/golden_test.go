package query

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/machine"
)

// The golden stream pins: every valid arch×strategy×opsize×unroll×
// {Q6,Q1}×{fused,aggregate} combination's full µop stream, over each
// golden table, is serialised canonically and hashed, and the hashes
// are committed. Any refactor of
// the generators or the Stream switch that changes a single byte of a
// single µop — opcode, register, address, size, predicate, offload
// payload — changes a hash and fails this test. Regenerate with
//
//	go test ./internal/query -run TestGoldenStreams -update-golden
//
// only when a stream change is intended and called out in the PR.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_streams.json from the current generators")

const goldenTuples = 256

// goldenSet is one table the golden streams run over, at goldenTuples
// rows, with the predicates its plans carry. Its keys carry the set's
// suffix.
type goldenSet struct {
	suffix string
	table  func(n int) *db.Table
	q6     db.Q06
	q1     db.Q01
}

// goldenSets are the pinned tables. The default predicates over a
// random table keep every chunk at 256 tuples, so the second set runs
// over date-ordered rows with a Q06 date window (rows 64–191 of 256)
// and a Q01 cutoff (rows 0–126) that each leave about half the chunks
// empty: it pins the decisions an empty chunk drives — the HIVE column
// plan's skipped chunks, the aggregation pass over the survivors only,
// and HIPE's squashed loads.
func goldenSets() []goldenSet {
	return []goldenSet{
		{table: func(n int) *db.Table { return db.GenerateMemo(n, 42) },
			q6: db.DefaultQ06(), q1: db.DefaultQ01()},
		{suffix: "/clustered",
			table: func(n int) *db.Table { return db.GenerateClusteredMemo(n, 42, 0) },
			q6: db.Q06{ShipLo: db.ShipDateDays / 4, ShipHi: 3 * db.ShipDateDays / 4,
				DiscLo: 5, DiscHi: 7, QtyHi: 24},
			q1: db.Q01{ShipCut: db.Day19950617}},
	}
}

// goldenPlans enumerates the pinned combination space: the full cross
// product of the evaluated axes, trimmed by ValidateFor exactly the way
// grid expansion trims it.
func goldenPlans(q6 db.Q06, q1 db.Q01) []Plan {
	var plans []Plan
	for _, kind := range []QueryKind{Q6Select, Q1Agg} {
		for _, arch := range []Arch{X86, HMC, HIVE, HIPE} {
			for _, strat := range []Strategy{TupleAtATime, ColumnAtATime} {
				for _, op := range []uint32{16, 32, 64, 128, 256} {
					for _, unroll := range []int{1, 8, 32} {
						for _, fused := range []bool{false, true} {
							for _, agg := range []bool{false, true} {
								p := Plan{Arch: arch, Strategy: strat, OpSize: op,
									Unroll: unroll, Fused: fused, Aggregate: agg, Kind: kind}
								if kind == Q1Agg {
									p.Q1 = q1
								} else {
									p.Q = q6
								}
								if p.ValidateFor(goldenTuples) != nil {
									continue
								}
								plans = append(plans, p)
							}
						}
					}
				}
			}
		}
	}
	return plans
}

// fmtMicroOp renders every field of a µop (and its offload payload, when
// present) into one canonical line. Check and Expect are verification
// bookkeeping, not part of the instruction encoding, and are
// deliberately excluded.
func fmtMicroOp(b *strings.Builder, u isa.MicroOp) {
	fmt.Fprintf(b, "pc=%#x class=%s dst=%d src1=%d src2=%d addr=%#x size=%d taken=%t uc=%t",
		u.PC, u.Class, u.Dst, u.Src1, u.Src2, uint64(u.Addr), u.Size, u.Taken, u.Uncacheable)
	if in := u.Offload; in != nil {
		fmt.Fprintf(b, " off[target=%s op=%s alu=%s dst=%d src1=%d src2=%d addr=%#x size=%d imm=%d imm2=%d useimm=%t fp=%t pred=%t/%d/%t pat=%v]",
			in.Target, in.Op, in.ALU, in.Dst, in.Src1, in.Src2, uint64(in.Addr), in.Size,
			in.Imm, in.Imm2, in.UseImm, in.FP, in.Pred.Valid, in.Pred.Reg, in.Pred.WhenZero, in.Pattern)
	}
	b.WriteByte('\n')
}

// streamHash drains the whole µop stream of p over tab and hashes its
// canonical serialisation.
func streamHash(t *testing.T, tab *db.Table, p Plan) (hash string, ops int) {
	t.Helper()
	mc := machine.Default()
	mc.ImageBytes = db.ImageBytesFor(goldenTuples)
	m, err := machine.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Prepare(m, tab, p)
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	h := sha256.New()
	var b strings.Builder
	s := w.Stream()
	for {
		u, ok := s.Next()
		if !ok {
			break
		}
		b.Reset()
		fmtMicroOp(&b, u)
		h.Write([]byte(b.String()))
		ops++
	}
	return hex.EncodeToString(h.Sum(nil)), ops
}

type goldenEntry struct {
	Hash string `json:"hash"`
	Ops  int    `json:"ops"`
}

func goldenPath() string { return filepath.Join("testdata", "golden_streams.json") }

// goldenKey names a plan in the golden file. Plan.String leaves out
// Aggregate, so an Aggregate plan carries an "/agg" suffix to keep it
// from overwriting its plain twin.
func goldenKey(p Plan) string {
	if p.Aggregate {
		return p.String() + "/agg"
	}
	return p.String()
}

// TestGoldenStreams asserts that every pinned plan combination still
// generates a byte-identical µop stream over every golden table.
func TestGoldenStreams(t *testing.T) {
	got := map[string]goldenEntry{}
	for _, set := range goldenSets() {
		tab := set.table(goldenTuples)
		for _, p := range goldenPlans(set.q6, set.q1) {
			k := goldenKey(p) + set.suffix
			if _, dup := got[k]; dup {
				t.Fatalf("two pinned plans share the key %s", k)
			}
			hash, ops := streamHash(t, tab, p)
			got[k] = goldenEntry{Hash: hash, Ops: ops}
		}
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]goldenEntry, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d plans)", goldenPath(), len(got))
		return
	}

	raw, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	want := map[string]goldenEntry{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file pins %d plans, generators produce %d", len(want), len(got))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: pinned plan no longer generated", k)
			continue
		}
		if g != w {
			t.Errorf("%s: stream changed: got %d ops hash %s, want %d ops hash %s",
				k, g.Ops, g.Hash, w.Ops, w.Hash)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: new plan combination not pinned (run -update-golden)", k)
		}
	}
}
