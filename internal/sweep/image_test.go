package sweep

import (
	"reflect"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/query"
)

// TestRunSizesDefaultImage pins Config.Run's machine: the default one
// gets an image of db.ImageBytesFor rows, below or above the default's
// 64 MiB, with the same result as on the default image, and an explicit
// machine keeps its own image.
func TestRunSizesDefaultImage(t *testing.T) {
	cfg := Config{Tuples: 1024, Seed: 42}
	// 2^19 rows need more than 64 MiB; the config alone is checked, since
	// simulating them takes seconds.
	for _, rows := range []int{cfg.Tuples, 1 << 19} {
		if got, want := cfg.machineFor(rows).ImageBytes, db.ImageBytesFor(rows); got != want {
			t.Fatalf("default machine image at %d rows: %d B, want %d", rows, got, want)
		}
	}
	if got := cfg.machineFor(1 << 19).ImageBytes; got <= machine.Default().ImageBytes {
		t.Fatalf("default machine image at 2^19 rows: %d B, want more than the default's", got)
	}
	mc := machine.Default()
	explicit := Config{Machine: &mc}
	if got := explicit.machineFor(cfg.Tuples).ImageBytes; got != mc.ImageBytes {
		t.Fatalf("explicit machine image %d B, want its own %d", got, mc.ImageBytes)
	}

	tab := db.GenerateMemo(cfg.Tuples, cfg.Seed)
	for _, p := range []query.Plan{
		{Arch: query.HIVE, Strategy: query.TupleAtATime, OpSize: 64, Unroll: 8, Q: db.DefaultQ06()},
		{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Kind: query.Q1Agg, Q1: db.DefaultQ01()},
	} {
		sized, err := cfg.Run(tab, p)
		if err != nil {
			t.Fatal(err)
		}
		full, err := explicit.Run(tab, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sized, full) {
			t.Errorf("%s: sized image gives %+v, the full image %+v", p, sized, full)
		}
	}
}
