package query

// Stream ownership pins: every stream owns its block buffer, so streams
// of one prepared workload are independent of each other, and a
// stream's steady-state blocks reuse that buffer instead of allocating.

import (
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
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

// TestStreamsOfOneWorkloadAreIndependent drains two streams of one
// prepared workload alternately, one µop at a time, and requires the
// same µops from both: bench's traced pass drains a second stream of a
// workload it has already run, and a block buffer shared between the
// streams would hand one stream the other's blocks.
func TestStreamsOfOneWorkloadAreIndependent(t *testing.T) {
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
				if p.ValidateFor(goldenTuples) != nil {
					continue
				}
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
	}
}

// TestStreamBlocksZeroAlloc pins µop generation's steady state: once the
// first block has sized the stream's buffer, no later block of the x86
// plans allocates (they carry no offload instructions, the one per-µop
// allocation left).
func TestStreamBlocksZeroAlloc(t *testing.T) {
	for _, strat := range []Strategy{TupleAtATime, ColumnAtATime} {
		p := Plan{Arch: X86, Strategy: strat, OpSize: 64, Unroll: 8, Q: db.DefaultQ06()}
		t.Run(p.String(), func(t *testing.T) {
			// Two streams past their first block: AllocsPerRun's warm-up
			// call drains the first and its one measured call drains the
			// second, so every later block of a stream is counted.
			w := prepared(t, p, 4096)
			var streams []*chunkedStream
			for range 2 {
				s := w.Stream().(*chunkedStream)
				for {
					if _, ok := s.Next(); !ok {
						t.Fatal("stream ended in its first block")
					}
					if s.pos == len(s.blk.ops) {
						break
					}
				}
				streams = append(streams, s)
			}
			n, later := 0, 0
			allocs := testing.AllocsPerRun(1, func() {
				later = 0
				for _, ok := streams[n].Next(); ok; _, ok = streams[n].Next() {
					later++
				}
				n++
			})
			if later == 0 {
				t.Fatal("no µops after the first block")
			}
			if allocs != 0 {
				t.Errorf("%v allocs over the %d µops after the first block, want 0", allocs, later)
			}
		})
	}
}
