package serve

import (
	"runtime"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// TestNewEdgeCases: shard-count edges against a fixed table.
func TestNewEdgeCases(t *testing.T) {
	tab := testTable()
	cases := []struct {
		name    string
		shards  int
		wantErr bool
	}{
		{"zero shards", 0, true},
		{"negative shards", -1, true},
		{"one shard", 1, false},
		{"max shards", testRows / 64, false},
		{"more shards than 64-row groups", testRows/64 + 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(sweep.Default(), tab, tc.shards)
			if tc.wantErr && err == nil {
				t.Fatalf("%d shards accepted", tc.shards)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("%d shards rejected: %v", tc.shards, err)
			}
		})
	}
}

// TestAdmitEdgeCases: the admission table — malformed plans, plans
// outside the envelope, auto plans with no surviving candidate.
func TestAdmitEdgeCases(t *testing.T) {
	c := testCluster(t, 2)
	q := db.DefaultQ06()
	cases := []struct {
		name    string
		req     Request
		wantErr string
	}{
		{"valid hipe", Request{Plan: DefaultPlan(query.HIPE, q)}, ""},
		{"valid auto", Request{Plan: DefaultPlan(query.ArchAuto, q)}, ""},
		{"unknown backend", Request{Plan: query.Plan{
			Arch: query.Arch(0x42), Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q,
		}}, "arch"},
		{"bad op size", Request{Plan: query.Plan{
			Arch: query.X86, Strategy: query.ColumnAtATime, OpSize: 7, Unroll: 8, Q: q,
		}}, "op size"},
		{"zero unroll", Request{Plan: query.Plan{
			Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 0, Q: q,
		}}, "unroll"},
		{"negative class", Request{Plan: DefaultPlan(query.HIPE, q), Class: -1}, "class"},
		{"negative class auto", Request{Plan: DefaultPlan(query.ArchAuto, q), Class: -1}, "class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := c.Admit(tc.req)
			if tc.wantErr != "" && err != nil {
				// Query admits through the same check.
				if _, qerr := c.Query(tc.req, Options{Workers: 1}); qerr == nil {
					t.Fatal("Query served a request Admit rejects")
				}
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("admitted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestFleetAdmitAllReplicasUnavailable: when every pool's plan is
// rejected by the envelope, admission fails with the no-replica error
// rather than panicking or queueing undeliverable work.
func TestFleetAdmitAllReplicasUnavailable(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.HIPE)
	// An x86 request on an all-HIPE fleet: no pool matches.
	err := f.Admit(Request{Plan: DefaultPlan(query.X86, db.DefaultQ06())})
	if err == nil || !strings.Contains(err.Error(), "no replica pool") {
		t.Fatalf("want the no-replica-pool error, got %v", err)
	}
	// A malformed plan is undeliverable on every pool even when the
	// architecture matches.
	bad := query.Plan{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 7, Unroll: 32, Q: db.DefaultQ06()}
	if err := f.Admit(Request{Plan: bad}); err == nil {
		t.Fatal("malformed plan admitted")
	}
}

// TestEffectiveWorkersTable: the worker-count resolution table,
// including the GOMAXPROCS default at zero and negative counts.
func TestEffectiveWorkersTable(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name    string
		workers int
		want    int
	}{
		{"zero defaults to GOMAXPROCS", 0, procs},
		{"negative defaults to GOMAXPROCS", -3, procs},
		{"one", 1, 1},
		{"GOMAXPROCS explicit", procs, procs},
		{"beyond GOMAXPROCS honoured", procs + 5, procs + 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := (Options{Workers: tc.workers}).EffectiveWorkers(); got != tc.want {
				t.Fatalf("EffectiveWorkers(%d) = %d, want %d", tc.workers, got, tc.want)
			}
		})
	}
}

// TestLoadSpecZeroCapacityEdges: empty request sets, zero concurrency
// and zero rates are refused before any simulation runs.
func TestLoadSpecZeroCapacityEdges(t *testing.T) {
	reqs := make([]Request, 2)
	cases := []struct {
		name string
		spec LoadSpec
	}{
		{"no requests open", OpenLoop(nil, 100, 0, 1)},
		{"no requests closed", ClosedLoop(nil, 2)},
		{"zero interarrival", OpenLoop(reqs, 0, 0, 1)},
		{"zero concurrency", ClosedLoop(reqs, 0)},
		{"negative concurrency", ClosedLoop(reqs, -4)},
		{"unknown mode", LoadSpec{Requests: reqs, Mode: Mode(99)}},
		{"unnamed class", func() LoadSpec {
			s := OpenLoop(reqs, 100, 0, 1)
			s.Classes = []ClassSpec{{}}
			return s
		}()},
		{"shed without classes", func() LoadSpec {
			s := OpenLoop(reqs, 100, 0, 1)
			s.Shed = true
			return s
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.validate(); err == nil {
				t.Fatal("malformed spec accepted")
			}
		})
	}
}
