package serve

// Serving-layer verification of the Q01 aggregation workload: per-shard
// group partials must recompose into the whole-table group table for
// every architecture at shard counts {1, 2, 4, 8}, and mixed Q06/Q01
// load tests must stay byte-deterministic at any executor worker count.

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// TestQ1ShardedGroupsExactAcrossShardCounts is the aggregation
// acceptance check: for all four architectures the merged per-group
// aggregates equal the unsharded reference evaluator's at shard counts
// {1, 2, 4, 8}.
func TestQ1ShardedGroupsExactAcrossShardCounts(t *testing.T) {
	tab := testTable()
	q := db.DefaultQ01()
	ref := db.ReferenceQ1(tab, q)
	plans := []query.Plan{
		DefaultQ1Plan(query.X86, q),
		DefaultQ1Plan(query.HMC, q),
		DefaultQ1Plan(query.HIVE, q),
		DefaultQ1Plan(query.HIPE, q),
	}
	for _, p := range plans {
		if err := p.Validate(); err != nil {
			t.Fatalf("default Q1 plan invalid: %v", err)
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		cluster, err := New(sweep.Config{Tuples: tab.N, Seed: 42}, tab, shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			resp, err := cluster.Query(Request{Plan: p}, Options{})
			if err != nil {
				t.Fatalf("%d shards, %s: %v", shards, p, err)
			}
			if resp.Matches != ref.Matches {
				t.Fatalf("%d shards, %s: matches %d, reference %d", shards, p, resp.Matches, ref.Matches)
			}
			if len(resp.Groups) != db.NumGroups {
				t.Fatalf("%d shards, %s: %d groups", shards, p, len(resp.Groups))
			}
			for g, agg := range resp.Groups {
				if agg != ref.Groups[g] {
					t.Fatalf("%d shards, %s: group %d %+v, reference %+v", shards, p, g, agg, ref.Groups[g])
				}
			}
			if resp.Revenue != ref.Revenue() {
				t.Fatalf("%d shards, %s: revenue %d, reference %d", shards, p, resp.Revenue, ref.Revenue())
			}
		}
	}
}

func TestStreamSpecQ1Mix(t *testing.T) {
	reqs, err := StreamSpec{N: 12, Seed: 5, Q1Every: 3}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		wantQ1 := (i+1)%3 == 0
		gotQ1 := req.Plan.Kind == query.Q1Agg
		if gotQ1 != wantQ1 {
			t.Fatalf("request %d: kind %v, Q1Every=3", i, req.Plan.Kind)
		}
		if err := req.Plan.Validate(); err != nil {
			t.Fatalf("request %d invalid: %v", i, err)
		}
	}
	// Enabling the mix must not disturb the Q06 positions' predicates.
	pure, err := StreamSpec{N: 12, Seed: 5}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if reqs[i].Plan.Kind == query.Q1Agg {
			continue
		}
		if reqs[i] != pure[i] {
			t.Fatalf("request %d changed when the Q01 mix was enabled", i)
		}
	}
	// A negative cadence is rejected.
	if _, err := (StreamSpec{N: 4, Seed: 1, Q1Every: -1}).Requests(); err == nil {
		t.Fatal("negative Q1Every accepted")
	}
}

// TestQ1MixedLoadTestDeterministicAcrossWorkerCounts: a mixed Q06/Q01
// load test's report and exports are identical at 1, 2 and 8 workers.
// Each run gets a fresh cluster, so each one simulates its legs.
func TestQ1MixedLoadTestDeterministicAcrossWorkerCounts(t *testing.T) {
	tab := testTable()
	reqs, err := StreamSpec{N: 16, Seed: 9, Q1Every: 4}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	spec := OpenLoop(reqs, 40_000, 0, 11)
	var base *Report
	var baseCSV, baseJSON []byte
	var firstLegs int
	for _, workers := range []int{1, 2, 8} {
		cluster, err := New(sweep.Config{Tuples: tab.N, Seed: 42}, tab, 4)
		if err != nil {
			t.Fatal(err)
		}
		var legs int
		rep, err := cluster.LoadTest(spec, countLegs(Options{Workers: workers}, &legs))
		if err != nil {
			t.Fatal(err)
		}
		checkSimulated(t, legs, &firstLegs)
		csvOut, jsonOut := exports(t, rep)
		if base == nil {
			base, baseCSV, baseJSON = rep, csvOut, jsonOut
			continue
		}
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("report differs at %d workers", workers)
		}
		if !bytes.Equal(baseCSV, csvOut) || !bytes.Equal(baseJSON, jsonOut) {
			t.Fatalf("exports differ at %d workers", workers)
		}
	}
	// Every Q01 trace carries the verified whole-table answers.
	ref := db.ReferenceQ1(tab, db.DefaultQ01())
	sawQ1 := false
	for _, tr := range base.Requests {
		if tr.Plan.Kind != query.Q1Agg {
			continue
		}
		sawQ1 = true
		if tr.Matches != ref.Matches || tr.Revenue != ref.Revenue() {
			t.Fatalf("Q01 trace %d: matches %d revenue %d, reference %d/%d",
				tr.Index, tr.Matches, tr.Revenue, ref.Matches, ref.Revenue())
		}
	}
	if !sawQ1 {
		t.Fatal("no Q01 request in the mixed stream")
	}
}
