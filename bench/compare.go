package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads every untraced run record under dir (any depth),
// grouped by workload, each group in path order. Each file is one run.
func loadRuns(dir string) (map[string][]*record, error) {
	runs := map[string][]*record{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		if _, ok := workloadByName(strings.TrimSuffix(d.Name(), ".json")); !ok {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		runs[r.Workload] = append(runs[r.Workload], &r)
		return nil
	})
	return runs, err
}

// verdict is the comparison of one (metric, workload) pair.
type verdict struct {
	workload, metric string
	base, head       summary
	wins, pairs      int
	result           string
}

// compareMetric applies the benchmark's rule to one metric's run
// values. A regression is a head median worse than the base median by
// more than the bound. A gain needs at least ten pairs, at least nine
// tenths of them won (ties count for neither side), and a median gap
// wider than the base runs' interquartile range. When the base runs
// spread wider than the bound the metric is unresolved, unless every
// head run beats every base run.
func compareMetric(m metricSpec, base, head []float64) verdict {
	v := verdict{metric: m.Name, base: summarize(base), head: summarize(head)}
	if len(base) == 0 || len(head) == 0 {
		v.result = "missing"
		return v
	}
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	v.pairs = min(len(base), len(head))
	for i := 0; i < v.pairs; i++ {
		if better(head[i], base[i]) {
			v.wins++
		}
	}
	allBetter := better(minOrMax(head, m.Better == "higher", false), minOrMax(base, m.Better == "higher", true))
	gap := v.head.Median - v.base.Median
	if m.Better != "higher" {
		gap = -gap
	}
	switch {
	case v.base.spread() > m.Bound && !allBetter:
		v.result = "unresolved"
	case -gap > m.Bound*math.Abs(v.base.Median):
		v.result = "worse"
	case v.pairs >= 10 && float64(v.wins) >= 0.9*float64(v.pairs) && gap > v.base.Q3-v.base.Q1:
		v.result = "better"
	default:
		v.result = "unchanged"
	}
	return v
}

// minOrMax returns the worst (best=false) or best (best=true) value of
// xs under the metric's direction.
func minOrMax(xs []float64, higherBetter, best bool) float64 {
	s := sorted(xs)
	if higherBetter == best {
		return s[len(s)-1]
	}
	return s[0]
}

// compareDirs compares every end-to-end metric of every workload found
// in both directories and prints one row per pair. It fails when any
// metric got worse.
func compareDirs(specPath, baseDir, headDir string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	base, err := loadRuns(baseDir)
	if err != nil {
		return err
	}
	head, err := loadRuns(headDir)
	if err != nil {
		return err
	}
	var workloadsSeen []string
	for w := range base {
		workloadsSeen = append(workloadsSeen, w)
	}
	sort.Strings(workloadsSeen)
	worse := 0
	fmt.Printf("%-14s %-12s %12s %25s %12s %9s  %s\n", "workload", "metric", "base", "base [q1, q3]", "head", "wins", "verdict")
	for _, w := range workloadsSeen {
		for _, m := range spec.EndToEnd {
			v := compareMetric(m, values(base[w], m.Name), values(head[w], m.Name))
			v.workload = w
			if v.result == "worse" {
				worse++
			}
			fmt.Printf("%-14s %-12s %12.6g [%11.6g, %11.6g] %12.6g %4d/%-4d  %s\n", w, m.Name,
				v.base.Median, v.base.Q1, v.base.Q3, v.head.Median, v.wins, v.pairs, v.result)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse", worse)
	}
	return nil
}

func values(runs []*record, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
