// The workload profiler: the exact, deterministic selectivity inputs
// the cost model consumes. For a given table and plan shape it computes
// the full-predicate selectivity and, at the plan's chunk granularity,
// the per-stage chunk-survival fractions — the share of chunks that
// still hold at least one live tuple entering each predicate stage,
// which is what decides how much work the engines' chunk-granular
// skipping (HIVE's processor branches, HIPE's predication squashes)
// actually avoids. On a date-clustered table survival tracks the
// predicate's date window; on a uniform table it saturates toward 1
// within a few percent selectivity — both effects the simulator
// measures and the model must reproduce.
package cost

import (
	"math"
	"math/bits"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/query"
)

// Profile is the selectivity profile of one (table, plan shape) pair.
type Profile struct {
	// Tuples is the table's row count.
	Tuples int
	// Sel is the full-predicate selectivity: the fraction of tuples
	// passing every stage.
	Sel float64
	// Stages is the plan's compiled predicate pipeline.
	Stages []query.Stage
	// Survival[s] is the fraction of chunks (at the plan's operation
	// size) with at least one tuple passing stages 0..s — the active
	// fraction for work gated on stage s's outcome.
	Survival []float64
}

// FinalSurvival is the surviving-chunk fraction after the whole
// pipeline (1 when the profile has no stages).
func (p Profile) FinalSurvival() float64 {
	if len(p.Survival) == 0 {
		return 1
	}
	return p.Survival[len(p.Survival)-1]
}

// ProfileFor computes the exact profile of plan p's predicate over tab
// at p's chunk granularity. O(tuples × stages), deterministic; the
// serving layer caches it per distinct predicate. It walks the table
// one chunk at a time and keeps the chunk's live tuples in 64-bit
// masks, one word per 64 tuples, so it allocates the profile and
// nothing that grows with the table.
func ProfileFor(tab *db.Table, p query.Plan) Profile {
	d := p.Desc()
	tuplesPerChunk := int(p.OpSize) / db.ColumnWidth
	if p.Strategy == query.TupleAtATime {
		tuplesPerChunk = int(p.OpSize) / db.TupleBytes
	}
	if tuplesPerChunk < 1 {
		tuplesPerChunk = 1
	}
	prof := Profile{
		Tuples:   tab.N,
		Stages:   d.Stages,
		Survival: make([]float64, len(d.Stages)),
	}
	if tab.N == 0 {
		return prof
	}
	// Every shipped predicate has at most three stages, so the scans
	// stay on the stack.
	var buf [3]stageScan
	scans := buf[:0]
	for _, st := range d.Stages {
		lo, hi, ranged := stageRange(st)
		scans = append(scans, stageScan{col: query.Column(tab, st.Col), st: st, lo: lo, hi: hi, ranged: ranged})
	}
	matches := 0
	for base := 0; base < tab.N; base += tuplesPerChunk {
		end := min(base+tuplesPerChunk, tab.N)
		// depth is the most stages any word of the chunk survived: the
		// chunk holds a live tuple after stages 0..depth-1.
		depth := 0
		// A chunk wider than 64 tuples (an op size Validate rejects) is
		// walked one word at a time.
		for w := base; w < end; w += 64 {
			live := ^uint64(0) >> (64 - min(64, end-w))
			for s := range scans {
				// A word stops at the first stage that empties it.
				if live = scans[s].keep(w, live); live == 0 {
					break
				}
				depth = max(depth, s+1)
				if s == len(scans)-1 {
					matches += bits.OnesCount64(live)
				}
			}
		}
		for s := range depth {
			scans[s].liveChunks++
		}
	}
	chunks := (tab.N + tuplesPerChunk - 1) / tuplesPerChunk
	for s := range scans {
		prof.Survival[s] = float64(scans[s].liveChunks) / float64(chunks)
	}
	prof.Sel = float64(matches) / float64(tab.N)
	return prof
}

// stageScan is one predicate stage as ProfileFor applies it: the
// column it reads, the count of chunks still holding a live tuple
// after it, and its bounds reduced to one range where stageRange can
// (every shipped predicate), so the per-tuple test compares inline
// instead of walking the bound list.
type stageScan struct {
	col        []int32
	st         query.Stage
	lo, hi     int32
	ranged     bool
	liveChunks int
}

// keep returns live without the bits whose tuples, at rows base+i,
// the stage rejects. Only live tuples are tested.
func (sc *stageScan) keep(base int, live uint64) uint64 {
	vals := sc.col[base:]
	for m := live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		v := vals[i]
		if sc.ranged {
			if v < sc.lo || v > sc.hi {
				live &^= 1 << i
			}
		} else if !sc.st.Match(v) {
			live &^= 1 << i
		}
	}
	return live
}

// stageRange reduces a stage's bound list to one [lo, hi] range when
// possible (GE/GT/LE/LT/EQ bounds AND together into a range; NE does
// not).
func stageRange(st query.Stage) (lo, hi int32, ok bool) {
	lo, hi = math.MinInt32, math.MaxInt32
	for _, b := range st.Bounds {
		switch b.Kind {
		case isa.CmpGE:
			lo = max32(lo, b.Imm)
		case isa.CmpGT:
			if b.Imm == math.MaxInt32 {
				return 0, 0, false
			}
			lo = max32(lo, b.Imm+1)
		case isa.CmpLE:
			hi = min32(hi, b.Imm)
		case isa.CmpLT:
			if b.Imm == math.MinInt32 {
				return 0, 0, false
			}
			hi = min32(hi, b.Imm-1)
		case isa.CmpEQ:
			lo, hi = max32(lo, b.Imm), min32(hi, b.Imm)
		default:
			return 0, 0, false
		}
	}
	return lo, hi, true
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// profileCache shares profiles across candidates within one routing
// decision: candidates over the same predicate differ only in chunk
// granularity, so a four-backend pick needs two profiles, not four.
type profileCache struct {
	tab   *db.Table
	profs map[profileKey]Profile
}

type profileKey struct {
	strat query.Strategy
	op    uint32
	kind  query.QueryKind
	q     db.Q06
	q1    db.Q01
}

func newProfileCache(tab *db.Table) *profileCache {
	return &profileCache{tab: tab, profs: make(map[profileKey]Profile)}
}

func (pc *profileCache) get(p query.Plan) Profile {
	key := profileKey{strat: p.Strategy, op: p.OpSize, kind: p.Kind, q: p.Q, q1: p.Q1}
	if prof, ok := pc.profs[key]; ok {
		return prof
	}
	prof := ProfileFor(pc.tab, p)
	pc.profs[key] = prof
	return prof
}
