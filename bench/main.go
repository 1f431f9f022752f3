// Command bench is the repository benchmark: it runs one workload for a
// fixed time, checks every simulated output, and prints each metric
// with its unit, ending with one JSON line. See README.md.
//
//	go run . -workload figures -seed 42 -seconds 25 -trace 0
//	go run . -workload all -out /tmp/runs/1
//	go run . -compare /tmp/base /tmp/head
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"github.com/hipe-sim/hipe/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or \"all\" (each in its own process)")
	seed := fs.Uint64("seed", goldenSeed, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 25, "how long one run measures")
	trace := fs.Int("trace", 0, "0: measure end-to-end metrics; 1: one traced pass and the layer drivers")
	out := fs.String("out", "", "directory to write <workload>.json (and .spans.json when tracing) into")
	compare := fs.String("compare", "", "base run directory to compare the directory given as argument against")
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the comparison bounds")
	update := fs.Bool("update-golden", false, "re-record the workload's goldens at seed 42 instead of running it")
	golden := fs.String("golden", "bench/testdata/golden.json", "golden file -update-golden writes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return errors.New("-compare needs the head run directory as its argument")
		}
		return compareDirs(*spec, *compare, fs.Arg(0))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds %g: want a positive duration", *seconds)
	}
	var names []string
	if *name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(*name); ok {
		names = []string{*name}
	} else {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *update {
		return updateGoldens(names, *golden)
	}
	if *name == "all" {
		return runAll(names, *seed, *seconds, *out)
	}
	w, _ := workloadByName(*name)
	rec, err := runWorkload(w, fullScale, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		return err
	}
	return printRecord(rec)
}

// runAll runs every workload in its own child process, one at a time:
// an untraced run, then a traced one.
func runAll(names []string, seed uint64, seconds float64, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			fmt.Printf("== %s trace=%s\n", name, trace)
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s trace=%s: %w", name, trace, err)
			}
		}
	}
	return nil
}

// metricRecord is one reported metric: its value and, where it was
// sampled more than once, the samples' distribution.
type metricRecord struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	summary
}

// record is one run's outcome, as written to <out>/<workload>.json.
type record struct {
	Workload  string                  `json:"workload"`
	Seed      uint64                  `json:"seed"`
	Trace     bool                    `json:"trace"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Failures  []string                `json:"failures,omitempty"`
	Metrics   map[string]metricRecord `json:"metrics"`
}

// printRecord prints each metric on its own line, then the result line
// the benchmark contract reads.
func printRecord(rec *record) error {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("%-30s %-9s value=%-12.6g median=%-12.6g q1=%-12.6g q3=%-12.6g n=%d\n",
			n, m.Unit, m.Value, m.Median, m.Q1, m.Q3, m.N)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for n, m := range rec.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// checker compares every op's output with the first pass's, with the
// goldens where they apply, and counts failures against attempts.
type checker struct {
	golden            map[string]string
	first             map[string]string
	attempted, failed int
	// failures describes the first few failures.
	failures []string
}

// fail records n failed ops under one description.
func (c *checker) fail(n int, format string, a ...any) {
	c.failed += n
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, a...))
	}
}

func (c *checker) check(ops []op) {
	for _, o := range ops {
		c.attempted++
		if c.golden != nil {
			if want, ok := c.golden[o.name]; !ok || want != o.out {
				c.fail(1, "%s: %q differs from golden %q", o.name, o.out, want)
				continue
			}
		}
		if want, ok := c.first[o.name]; ok && want != o.out {
			c.fail(1, "%s: %q differs from the first pass's %q", o.name, o.out, want)
		} else if !ok {
			c.first[o.name] = o.out
		}
	}
}

// checkTraced compares the traced pass's ops with the untraced pass's
// — every op it reports must have run untraced with the same output —
// and counts the traced pass's own further checks.
func (c *checker) checkTraced(res tracedResult) {
	for _, o := range res.ops {
		c.attempted++
		if want := c.first[o.name]; want != o.out {
			c.fail(1, "%s: traced %q differs from untraced %q", o.name, o.out, want)
		}
	}
	c.attempted += res.checked
	if res.mismatches > 0 {
		c.fail(res.mismatches, "%d of %d traced comparisons differ from the untraced pass", res.mismatches, res.checked)
	}
}

// passStats is one pass's host cost.
type passStats struct {
	wall, cpu time.Duration
	alloc     uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// measure times f after a collection, so one pass's garbage is not
// collected on the next pass's clock.
func measure(f func() error) (passStats, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuTime(), time.Now()
	err := f()
	s := passStats{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&after)
	s.alloc = after.TotalAlloc - before.TotalAlloc
	return s, err
}

// setups is how many timed set-ups a run makes; setup_s is their
// median.
const setups = 5

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func sampled(unit string, xs []float64) metricRecord {
	s := summarize(xs)
	return metricRecord{Unit: unit, Value: s.Median, summary: s}
}

func single(unit string, v float64) metricRecord {
	return metricRecord{Unit: unit, Value: v, summary: summary{Median: v, Q1: v, Q3: v, N: 1}}
}

// runWorkload sets w up and runs it: untraced passes for budget, or
// (traced) one untraced pass, one traced pass and the layer drivers.
func runWorkload(w workload, sc scale, seed uint64, budget time.Duration, traced bool, out string) (*record, error) {
	golden, err := goldenFor(w.name, sc, seed)
	if err != nil {
		return nil, err
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
	}
	chk := &checker{golden: golden, first: map[string]string{}}
	// One set-up before the timed ones fills process-wide caches (the
	// table memo) that a long-lived process keeps.
	inst, err := w.setup(sc, seed)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	var setupTimes []time.Duration
	if !traced {
		for i := 0; i < setups; i++ {
			t0 := time.Now()
			if inst, err = w.setup(sc, seed); err != nil {
				return nil, fmt.Errorf("%s setup: %w", w.name, err)
			}
			setupTimes = append(setupTimes, time.Since(t0))
		}
	}
	pass := func() (passStats, passResult, error) {
		var res passResult
		st, err := measure(func() (err error) { res, err = inst.pass(); return err })
		if err == nil {
			chk.check(res.ops)
		}
		return st, res, err
	}
	if w.warmup {
		if _, _, err := pass(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	rec := &record{Workload: w.name, Seed: seed, Trace: traced, Metrics: map[string]metricRecord{}}
	if traced {
		err = tracedRun(w, inst, sc, pass, chk, rec, out)
	} else {
		err = untracedRun(budget, pass, rec)
		rec.Metrics["setup_s"] = sampled("s", durations(setupTimes, time.Second))
	}
	if err != nil {
		chk.fail(1, "%s: %v", w.name, err)
	}
	rec.Attempted, rec.Failed = max(chk.attempted, chk.failed, 1), chk.failed
	rec.Correct = rec.Failed == 0
	rec.Failures = chk.failures
	if out != "" {
		if err := writeRecord(rec, out); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// untracedRun repeats passes until the next one would overrun budget,
// and at least twice, and records the end-to-end metrics: the median
// wall and CPU time and allocated bytes of a pass, the run's peak
// resident memory, and the median and 90th percentile of the host time
// per op completion over all passes.
func untracedRun(budget time.Duration, pass func() (passStats, passResult, error), rec *record) error {
	var walls, cpus []time.Duration
	var allocs, lat []float64
	start := time.Now()
	for len(walls) < 2 || time.Since(start)+time.Duration(median(durations(walls, 1))) <= budget {
		st, res, err := pass()
		if err != nil {
			return err
		}
		walls, cpus = append(walls, st.wall), append(cpus, st.cpu)
		allocs = append(allocs, float64(st.alloc)/1e6)
		lat = append(lat, durations(res.lat, time.Millisecond)...)
	}
	rec.Metrics["wall_s"] = sampled("s", durations(walls, time.Second))
	rec.Metrics["cpu_s"] = sampled("s", durations(cpus, time.Second))
	rec.Metrics["alloc_mb"] = sampled("MB", allocs)
	rec.Metrics["peak_rss_mb"] = single("MB", peakRSSMB())
	p50, p90 := sampled("ms", lat), sampled("ms", lat)
	p50.Value, p90.Value = quantile(lat, 0.5), quantile(lat, 0.9)
	rec.Metrics["op_ms.p50"], rec.Metrics["op_ms.p90"] = p50, p90
	return nil
}

// layerSpans maps each per-layer self-time metric to its span and the
// unit its span time is reported in.
var layerSpans = []struct {
	metric, span string
	unit         time.Duration
}{
	{"db.generate_ms", "db.generate", time.Millisecond},
	{"db.partition_ms", "db.partition", time.Millisecond},
	{"db.selectivity_ms", "db.selectivity", time.Millisecond},
	{"machine.new_ms", "machine.new", time.Millisecond},
	{"machine.reset_ms", "machine.reset", time.Millisecond},
	{"query.prepare_ms", "query.prepare", time.Millisecond},
	{"query.codegen_ms", "query.codegen", time.Millisecond},
	{"query.verify_ms", "query.verify", time.Millisecond},
	{"energy.audit_ms", "energy.audit", time.Millisecond},
	{"obs.capture_ms", "obs.capture", time.Millisecond},
	{"cost.pick_us", "cost.pick", time.Microsecond},
	{"cost.estimate_us", "cost.estimate", time.Microsecond},
	{"serve.replay_ms", "serve.replay", time.Millisecond},
}

// tracedRun makes one untraced pass (the overhead baseline and the
// outcome metrics), one traced pass, and runs every layer driver.
func tracedRun(w workload, inst instance, sc scale, pass func() (passStats, passResult, error),
	chk *checker, rec *record, out string) error {
	base, res, err := pass()
	if err != nil {
		return err
	}
	tr := newTracer()
	ctr := &obs.Counters{}
	var tres tracedResult
	st, err := measure(func() (err error) {
		tr.do("pass", func() { tres, err = inst.traced(tr, ctr) })
		return err
	})
	if err != nil {
		return err
	}
	chk.checkTraced(tres)

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	self := tr.selfTimes()
	for _, ls := range layerSpans {
		m[ls.metric] = float64(self[ls.span]) / float64(ls.unit)
	}
	// machine.run includes regenerating the stream query.codegen timed.
	m["machine.run_self_ms"] = float64(self["machine.run"]-self["query.codegen"]) / float64(time.Millisecond)
	// The benchmark's own spans; every other span is a call into a layer.
	glue := self["pass"] + self["setup"] + self["op"]
	m["bench.self_ms"] = float64(glue) / float64(time.Millisecond)
	m["trace.coverage_pct"] = 100 * (1 - float64(glue)/float64(tr.total("pass")))
	m["trace_overhead_pct"] = 100 * (float64(st.cpu)/float64(base.cpu) - 1)
	m["sweep.parallel_eff"] = float64(base.cpu) / (float64(inst.workers()) * float64(base.wall))
	counterMetrics(ctr, m)
	for k, v := range res.outcome {
		m[k] = v
	}
	for k, v := range tres.outcome {
		m[k] = v
	}
	m["sim_muops_per_s"] = m["cpu.uops"] / 1e6 / base.wall.Seconds()
	for _, d := range layerDrivers {
		if m[d.name], err = runDriver(d, sc.driver); err != nil {
			return err
		}
	}
	for _, d := range perLayer {
		rec.Metrics[d.name] = single(d.unit, m[d.name])
	}
	if out != "" {
		return tr.writeJSON(filepath.Join(out, w.name+".spans.json"))
	}
	return nil
}

func writeRecord(rec *record, dir string) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	suffix := ".json"
	if rec.Trace {
		suffix = ".layers.json"
	}
	return os.WriteFile(filepath.Join(dir, rec.Workload+suffix), append(b, '\n'), 0o644)
}
