package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

// smokeScale runs every workload small enough for the whole smoke test
// to finish in seconds.
var smokeScale = scale{tuples: 1024, requests: 100, driver: 5 * time.Millisecond}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload untraced and traced at small scale. It
// checks that every output repeats across passes and between the
// traced and untraced pass (so traced cycles equal untraced cycles),
// that nothing fails, and that the emitted metrics are exactly the ones
// BENCHMARK.json declares, with the same units.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(w, smokeScale, 7, time.Millisecond, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %q", w.name, traced, rec.Failed, rec.Attempted, rec.Failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json declares %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q", m.Name)
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s in %s, BENCHMARK.json says %s", w.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %g", w.name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestQuantiles pins the statistics to hand-computed values of the
// exclusive method (Python's statistics.quantiles default).
func TestQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs               []float64
		q1, med, q3, p90 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, 5.4},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 2.7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 9.9},
		{[]float64{7}, 7, 7, 7, 7},
	} {
		s := summarize(tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.med || s.Q3 != tc.q3 || s.N != len(tc.xs) {
			t.Errorf("%v: got q1=%g med=%g q3=%g n=%d, want %g %g %g", tc.xs, s.Q1, s.Median, s.Q3, s.N, tc.q1, tc.med, tc.q3)
		}
		if p := quantile(tc.xs, 0.9); math.Abs(p-tc.p90) > 1e-12 {
			t.Errorf("%v: p90 = %g, want %g", tc.xs, p, tc.p90)
		}
		if got := s.spread(); math.Abs(got-(tc.q3-tc.q1)/tc.med) > 1e-12 {
			t.Errorf("%v: spread = %g", tc.xs, got)
		}
	}
}

// TestCompare pins the comparison rule on hand-built run sets.
func TestCompare(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		m          metricSpec
		base, head []float64
		want       string
	}{
		{"same runs", lower, steady, steady, "unchanged"},
		{"20% slower", lower, steady, scaled(steady, 1.2), "worse"},
		{"5% slower, inside the bound", lower, steady, scaled(steady, 1.05), "unchanged"},
		{"20% faster on every pair", lower, steady, scaled(steady, 0.8), "better"},
		{"faster but only 5 pairs", lower, steady[:5], scaled(steady[:5], 0.8), "unchanged"},
		{"higher is better", higher, steady, scaled(steady, 1.2), "better"},
		{"lower rate is worse", higher, steady, scaled(steady, 0.8), "worse"},
		{"base spread wider than the bound", lower, []float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, steady, "unresolved"},
		// Every head run beats every base run, so the spread does not make
		// it unresolved; the median gap is inside the base IQR, so no gain.
		{"wide base, every head run better", lower, []float64{12, 20, 12, 20, 12, 20, 12, 20, 12, 20}, steady, "unchanged"},
		{"no head runs", lower, steady, nil, "missing"},
	} {
		if got := compareMetric(tc.m, tc.base, tc.head).result; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
