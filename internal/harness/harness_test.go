package harness

import (
	"reflect"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/serve"
)

func small() Config {
	c := Default()
	c.Tuples = 1024
	return c
}

func TestRunSinglePlan(t *testing.T) {
	c := small()
	tab := db.Generate(c.Tuples, c.Seed)
	r, err := c.Run(tab, query.Plan{Arch: query.HIPE, Strategy: query.ColumnAtATime,
		OpSize: 256, Unroll: 8, Q: db.DefaultQ06()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Energy.DRAMPJ() <= 0 || r.Checked == 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if r.Speedup(r.Cycles*2) != 2.0 {
		t.Fatal("Speedup arithmetic wrong")
	}
}

func TestRunRejectsBadPlan(t *testing.T) {
	c := small()
	tab := db.Generate(c.Tuples, c.Seed)
	_, err := c.Run(tab, query.Plan{Arch: query.X86, Strategy: query.TupleAtATime,
		OpSize: 128, Unroll: 1, Q: db.DefaultQ06()})
	if err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestFig3d(t *testing.T) {
	table, err := Fig3d(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("fig3d rows = %d", len(table.Rows))
	}
	// Headline orderings of the paper, at small scale: every cube
	// architecture beats x86 at its best configuration.
	base := table.Baseline
	for _, r := range table.Rows[1:] {
		if r.Cycles >= base {
			t.Errorf("%s (%d cycles) not faster than x86 (%d)", r.Plan, r.Cycles, base)
		}
	}
	out := table.String()
	if !strings.Contains(out, "Figure 3d") || !strings.Contains(out, "hipe") {
		t.Fatalf("table render wrong:\n%s", out)
	}
}

func TestFigureDispatch(t *testing.T) {
	if _, err := Figure(small(), "nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if len(Figures()) != 4 {
		t.Fatal("figure list wrong")
	}
}

// TestBestPlansValidate pins the shapes the backend table derives to
// the paper's Figure 3d best cases, for both the figure harness and the
// serving layer's default plans, and checks that each validates.
func TestBestPlansValidate(t *testing.T) {
	q := db.DefaultQ06()
	want := map[query.Arch]query.Plan{
		query.X86:  {Arch: query.X86, Strategy: query.ColumnAtATime, OpSize: 64, Unroll: 8, Q: q},
		query.HMC:  {Arch: query.HMC, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q},
		query.HIVE: {Arch: query.HIVE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Fused: true, Q: q},
		query.HIPE: {Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q},
	}
	if got := BestPlans(q); !reflect.DeepEqual(got, want) {
		t.Errorf("BestPlans = %v, want %v", got, want)
	}
	for arch, p := range want {
		if got := serve.DefaultPlan(arch, q); got != p {
			t.Errorf("serve.DefaultPlan(%s) = %s, want %s", arch, got, p)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("best plan for %s invalid: %v", arch, err)
		}
	}
}
