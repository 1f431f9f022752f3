package query

// Stream ownership pins: every stream owns its block buffer, so streams
// of one prepared workload are independent of each other, and a
// stream's steady-state blocks reuse that buffer instead of allocating.

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/sim"
)

// prepared returns a workload for p over a generated table of n tuples.
func prepared(t *testing.T, p Plan, n int) *Workload {
	t.Helper()
	w, err := Prepare(testMachine(t), db.GenerateMemo(n, 42), p)
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	return w
}

// matrixPlans is the independence matrix: every architecture, strategy
// and fused variant of both query kinds at one shape, trimmed by
// ValidateFor the way grid expansion trims it.
func matrixPlans() []Plan {
	var plans []Plan
	for _, kind := range []QueryKind{Q6Select, Q1Agg} {
		for _, arch := range []Arch{X86, HMC, HIVE, HIPE} {
			for _, v := range []struct {
				strat Strategy
				fused bool
			}{{TupleAtATime, false}, {ColumnAtATime, false}, {ColumnAtATime, true}} {
				p := Plan{Arch: arch, Strategy: v.strat, Fused: v.fused, OpSize: 64, Unroll: 8, Kind: kind}
				if arch != X86 {
					p.OpSize = 256
				}
				if kind == Q1Agg {
					p.Q1 = db.DefaultQ01()
				} else {
					p.Q = db.DefaultQ06()
				}
				if p.ValidateFor(goldenTuples) == nil {
					plans = append(plans, p)
				}
			}
		}
	}
	return plans
}

// TestStreamsOfOneWorkloadAreIndependent drains two streams of one
// prepared workload alternately, one µop at a time, and requires the
// same µops from both: bench's traced pass drains a second stream of a
// workload it has already run, and a block buffer shared between the
// streams would hand one stream the other's blocks.
func TestStreamsOfOneWorkloadAreIndependent(t *testing.T) {
	for _, p := range matrixPlans() {
		t.Run(p.String(), func(t *testing.T) {
			w := prepared(t, p, goldenTuples)
			a, b := w.Stream(), w.Stream()
			var ua, ub strings.Builder
			for n := 0; ; n++ {
				x, okA := a.Next()
				y, okB := b.Next()
				if okA != okB {
					t.Fatalf("µop %d: first stream ok=%t, second ok=%t", n, okA, okB)
				}
				if !okA {
					if n == 0 {
						t.Fatal("empty stream")
					}
					return
				}
				ua.Reset()
				ub.Reset()
				fmtMicroOp(&ua, x)
				fmtMicroOp(&ub, y)
				if ua.String() != ub.String() {
					t.Fatalf("µop %d differs:\n first  %s second %s", n, ua.String(), ub.String())
				}
			}
		})
	}
}

// drain runs a stream to its end and reports its length. A finished
// stream leaves its block buffers, grown to fit its largest block, with
// its workload's machine for the next stream to take.
func drain(s Stream) (n int) {
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		n++
	}
	return n
}

// TestStreamBlocksZeroAlloc pins µop generation's steady state: a stream
// that starts with the block buffers an earlier stream left on its
// machine allocates nothing in any block — offload instructions live by
// value in the stream's own buffer, and their expected results were
// built by Prepare. It covers every plan of the independence matrix
// plus HIPE's in-memory aggregation.
func TestStreamBlocksZeroAlloc(t *testing.T) {
	plans := append(matrixPlans(), Plan{Arch: HIPE, Strategy: ColumnAtATime,
		OpSize: 256, Unroll: 8, Aggregate: true, Q: db.DefaultQ06()})
	for _, p := range plans {
		t.Run(p.String(), func(t *testing.T) {
			w := prepared(t, p, 4096)
			drain(w.Stream())
			// AllocsPerRun's warm-up call drains the first stream and
			// its one measured call drains the second.
			streams := []*chunkedStream{w.Stream().(*chunkedStream), w.Stream().(*chunkedStream)}
			n, blocks := 0, 0
			allocs := testing.AllocsPerRun(1, func() {
				blocks = 0
				for _, ok := streams[n].Next(); ok; _, ok = streams[n].Next() {
					if streams[n].pos == 1 {
						blocks++
					}
				}
				n++
			})
			if blocks < 2 {
				t.Fatalf("%d blocks, want several", blocks)
			}
			if allocs != 0 {
				t.Errorf("%v allocs over the stream's %d blocks, want 0", allocs, blocks)
			}
		})
	}
}

// poisonedStream hands out a plan's µops and, on each following Next
// call, overwrites the instruction of the offload µop it handed out
// last with an invalid one — which cpu.Stream's contract allows, since
// a µop's Offload pointer is only valid until the next call.
type poisonedStream struct {
	s    Stream
	last *isa.OffloadInst
}

func (p *poisonedStream) Next() (isa.MicroOp, bool) {
	if p.last != nil {
		*p.last = isa.OffloadInst{Op: isa.OffloadOp(0xff)}
		p.last = nil
	}
	u, ok := p.s.Next()
	if ok && u.Class == isa.Offload {
		p.last = u.Offload
	}
	return u, ok
}

// TestPoisonedStreamRunsUnchanged pins the core's fetch copy: every
// plan of the independence matrix runs through a stream that poisons
// each instruction once the core has fetched it, and the run's cycles,
// every counter, its checks and its verdict must equal the clean run's.
func TestPoisonedStreamRunsUnchanged(t *testing.T) {
	type outcome struct {
		cycles   uint64
		counters string
		events   sim.Stats
		checked  int
		verify   error
	}
	run := func(t *testing.T, p Plan, poison bool) outcome {
		w := prepared(t, p, goldenTuples)
		var s Stream = w.Stream()
		if poison {
			s = &poisonedStream{s: s}
		}
		cycles := uint64(w.M.Run(s))
		return outcome{cycles, w.M.Registry.String(), w.M.Engine.Stats(), w.Checked(), w.Verify()}
	}
	for _, p := range matrixPlans() {
		t.Run(p.String(), func(t *testing.T) {
			want, got := run(t, p, false), run(t, p, true)
			if want.verify != nil {
				t.Fatalf("clean run: %v", want.verify)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("poisoned run differs:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestExactRunZeroAllocPerTuple pins an exact run's allocations to the
// machine, not the data: a warm run of one plan of every family makes
// at most two allocations, at 1024 tuples and at 4096 alike — nothing
// per tuple, per µop or per block. The machine is warm: earlier runs
// filled its pools, some of which (the caches' MSHR waiter lists)
// settle only over several runs, and left their streams' block buffers
// with it. The least of the last three of eight runs counts, and two
// allocations are allowed, because the Go runtime now and then
// allocates on its own: the caches' MSHR table is a map, which regrows
// as deleted entries pile up.
func TestExactRunZeroAllocPerTuple(t *testing.T) {
	plans := append(checkedPlans(),
		Plan{Arch: X86, Strategy: TupleAtATime, OpSize: 64, Unroll: 8, Q: db.DefaultQ06()},
		Plan{Arch: X86, Strategy: ColumnAtATime, OpSize: 64, Unroll: 8, Q: db.DefaultQ06()},
		Plan{Arch: HIPE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 8, Kind: Q1Agg, Q1: db.DefaultQ01()})
	for _, p := range plans {
		t.Run(p.String(), func(t *testing.T) {
			for _, n := range []int{1024, 4096} {
				tab := db.GenerateMemo(n, 42)
				m := testMachine(t)
				allocs := uint64(math.MaxUint64)
				for pass := 0; pass < 8; pass++ {
					m.Reset()
					w, err := Prepare(m, tab, p)
					if err != nil {
						t.Fatal(err)
					}
					s := w.Stream()
					var before, after runtime.MemStats
					gc := debug.SetGCPercent(-1)
					runtime.ReadMemStats(&before)
					m.Run(s)
					runtime.ReadMemStats(&after)
					debug.SetGCPercent(gc)
					if err := w.Verify(); err != nil {
						t.Fatal(err)
					}
					if pass >= 5 {
						allocs = min(allocs, after.Mallocs-before.Mallocs)
					}
				}
				if allocs > 2 {
					t.Errorf("a warm run over %d tuples allocates %d times, want at most 2", n, allocs)
				}
			}
		})
	}
}
