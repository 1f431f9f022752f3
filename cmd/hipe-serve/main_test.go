package main

import (
	"os/exec"
	"strings"
	"testing"
)

// runBinary executes this command via `go run .` — flag validation runs
// before any simulation, so usage-error cases return immediately.
func runBinary(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "."}, args...)...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("go run: %v\n%s", err, out)
	}
	return ee.ExitCode(), string(out)
}

func TestQ1FlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative cadence", []string{"-q1-every", "-1"}, "must not be negative"},
		{"cut without cadence", []string{"-q1-cut", "100"}, "no effect without -q1-every"},
		{"cut past range", []string{"-q1-every", "2", "-q1-cut", "9999"}, "outside the generated"},
		{"negative cut", []string{"-q1-every", "2", "-q1-cut", "-3"}, "outside the generated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runBinary(t, tc.args...)
			// `go run` reports the child's failure as its own exit 1 and
			// appends the child's "exit status 2" line.
			if code == 0 {
				t.Fatalf("usage error exited 0\n%s", out)
			}
			if !strings.Contains(out, "exit status 2") {
				t.Fatalf("child did not exit with usage status 2\n%s", out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output %q does not contain %q", out, tc.want)
			}
		})
	}
}

func TestMixedQ1LoadTestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real load test")
	}
	code, out := runBinary(t,
		"-shards", "2", "-requests", "8", "-tuples", "1024",
		"-q1-every", "3", "-quiet")
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out)
	}
	if !strings.Contains(out, "requests") {
		t.Fatalf("summary missing:\n%s", out)
	}
}

// TestArchValidationListsRegistry: an unknown -archs entry fails with a
// usage message that lists the table's backends (not a hard-coded
// string), including the planner's "auto".
func TestArchValidationListsRegistry(t *testing.T) {
	code, out := runBinary(t, "-archs", "riscv")
	if code == 0 {
		t.Fatalf("unknown arch exited 0\n%s", out)
	}
	for _, want := range []string{`unknown arch "riscv"`, "x86", "hmc", "hive", "hipe", "auto"} {
		if !strings.Contains(out, want) {
			t.Fatalf("usage output %q does not mention %q", out, want)
		}
	}
	if code, out := runBinary(t, "-noise", "-1"); code == 0 || !strings.Contains(out, "must not be negative") {
		t.Fatalf("negative -noise not rejected\n%s", out)
	}
}

// TestAutoServeRuns: -archs auto routes every request and exports the
// routing-decision columns.
func TestAutoServeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real load test")
	}
	code, out := runBinary(t,
		"-shards", "2", "-requests", "6", "-tuples", "1024",
		"-archs", "auto", "-clustered", "-quiet", "-csv", "-")
	if code != 0 {
		t.Fatalf("auto serve failed (%d)\n%s", code, out)
	}
	for _, want := range []string{"routed", "est_selectivity", "est_x86_cycles", "est_hipe_cycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("auto serve CSV lacks %q\n%s", want, out)
		}
	}
}

// TestFleetFlagValidation: the fleet/admission/trace flag grammar
// fails fast with usage, before any simulation runs.
func TestFleetFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"auto pool", []string{"-pools", "hipe,auto"}, "must pin a concrete backend"},
		{"unknown pool", []string{"-pools", "riscv"}, `unknown pool arch "riscv"`},
		{"fixed arch without pool", []string{"-pools", "hipe", "-archs", "x86"}, "no -pools entry pins it"},
		{"classes without pools", []string{"-classes", "a:10:5"}, "needs -pools"},
		{"bad class triple", []string{"-pools", "hipe", "-archs", "auto", "-classes", "a:10"}, "not name:slo"},
		{"bad class slo", []string{"-pools", "hipe", "-archs", "auto", "-classes", "a:x:5"}, "bad SLO"},
		{"negative patience", []string{"-pools", "hipe", "-archs", "auto", "-classes", "a:10:-5"}, "bad patience"},
		{"shed without classes", []string{"-pools", "hipe", "-archs", "auto", "-shed", "-mode", "open"}, "-shed needs -classes"},
		{"shed closed", []string{"-pools", "hipe", "-archs", "auto", "-classes", "a:10:5", "-shed", "-mode", "closed"}, "-shed needs -mode open"},
		{"trace closed", []string{"-trace", "-mode", "closed"}, "-trace needs -mode open"},
		{"burst without trace", []string{"-mode", "open", "-burst", "4"}, "need -trace"},
		{"amp without period", []string{"-mode", "open", "-trace", "-trace-amp", "0.5"}, "positive -trace-period-us"},
		{"amp at one", []string{"-mode", "open", "-trace", "-trace-period-us", "10", "-trace-amp", "1"}, "must be in [0, 1)"},
		{"burst below one", []string{"-mode", "open", "-trace", "-burst", "0.5"}, "multiplier >= 1"},
		{"burst without durations", []string{"-mode", "open", "-trace", "-burst", "4"}, "-burst-on-us"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runBinary(t, tc.args...)
			if code == 0 {
				t.Fatalf("usage error exited 0\n%s", out)
			}
			if !strings.Contains(out, "exit status 2") {
				t.Fatalf("child did not exit with usage status 2\n%s", out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output %q does not contain %q", out, tc.want)
			}
		})
	}
}

// TestExecFlagValidation pins the CLI-level exec-mode refusals: unknown
// modes list the registry, and estimate mode rejects the outputs it
// cannot produce before anything runs.
func TestExecFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown mode", []string{"-exec", "psychic"}, `unknown exec mode "psychic"`},
		{"mode choices listed", []string{"-exec", "psychic"}, "exact, estimate"},
		{"estimate with counters", []string{"-exec", "estimate", "-counters"}, "cannot produce machine counters"},
		{"estimate with trace json", []string{"-exec", "estimate", "-trace-json", "t.json"}, "cannot produce machine-replay traces"},
		{"estimate with span csv", []string{"-exec", "estimate", "-spans-csv", "s.csv"}, "cannot produce machine-replay traces"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runBinary(t, tc.args...)
			if code == 0 {
				t.Fatalf("usage error exited 0\n%s", out)
			}
			if !strings.Contains(out, "exit status 2") {
				t.Fatalf("child did not exit with usage status 2\n%s", out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output %q does not contain %q", out, tc.want)
			}
		})
	}
}

// TestGroupedUsage pins the subsystem grouping of the help text: every
// group header prints, and no flag has fallen out of the groups into
// the trailing "ungrouped" section.
func TestGroupedUsage(t *testing.T) {
	// flag's ExitOnError treats -h as success, so only the output matters.
	_, out := runBinary(t, "-h")
	for _, want := range []string{
		"serving:", "table:", "fleet:", "faults:", "recovery:", "adaptive:",
		"arrivals:", "execution:", "observability:", "export:", "profiling:",
		"-exec",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("usage output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ungrouped") {
		t.Errorf("a flag escaped the subsystem groups:\n%s", out)
	}
	if strings.Contains(out, "unregistered flag") {
		t.Errorf("a group lists a flag that is not registered:\n%s", out)
	}
}

// TestEstimateServeRuns: -exec estimate serves the stream on cost-model
// service times and marks the report and CSV export.
func TestEstimateServeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real load test")
	}
	code, out := runBinary(t,
		"-shards", "2", "-requests", "8", "-tuples", "1024",
		"-archs", "auto", "-exec", "estimate", "-quiet", "-csv", "-")
	if code != 0 {
		t.Fatalf("estimate serve failed (%d)\n%s", code, out)
	}
	if !strings.Contains(out, "exec_mode") || !strings.Contains(out, "estimate") {
		t.Fatalf("estimate serve CSV lacks the exec_mode marker\n%s", out)
	}
}

// TestFleetLoadTestRuns drives a small replicated fleet with classes,
// shedding and trace arrivals end to end.
func TestFleetLoadTestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real load test")
	}
	code, out := runBinary(t,
		"-shards", "2", "-requests", "12", "-tuples", "1024",
		"-mode", "open", "-qps", "400000",
		"-pools", "hipe,x86", "-archs", "auto",
		"-classes", "batch:400:50,rt:200:0", "-shed",
		"-trace", "-trace-period-us", "40", "-trace-amp", "0.5",
		"-burst", "4", "-burst-on-us", "5", "-burst-off-us", "15",
		"-quiet")
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out)
	}
	for _, want := range []string{"pool 0", "pool 1", "class 0 batch", "class 1 rt", "SLO"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestFaultFlagValidation: the fault/recovery flag grammar — including
// NaN, Inf and negative durations — dies with a usage error before any
// simulation runs.
func TestFaultFlagValidation(t *testing.T) {
	pools := []string{"-pools", "hipe,hipe", "-archs", "auto"}
	withPools := func(args ...string) []string { return append(append([]string{}, pools...), args...) }
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"faults without pools", []string{"-crash-every-us", "100", "-crash-down-us", "20"}, "need -pools"},
		{"recovery without pools", []string{"-retries", "2"}, "need -pools"},
		{"negative crash mean", withPools("-crash-every-us", "-5", "-crash-down-us", "10"), "non-negative finite duration"},
		{"NaN crash mean", withPools("-crash-every-us", "NaN", "-crash-down-us", "10"), "non-negative finite duration"},
		{"Inf outage", withPools("-crash-every-us", "100", "-crash-down-us", "+Inf"), "non-negative finite duration"},
		{"NaN timeout", withPools("-timeout-us", "NaN"), "non-negative finite duration"},
		{"negative hedge", withPools("-hedge-us", "-3"), "non-negative finite duration"},
		{"crash mean without outage", withPools("-crash-every-us", "100"), "needs a positive -crash-down-us"},
		{"outage without mean", withPools("-crash-down-us", "100"), "no effect without -crash-every-us"},
		{"straggle mean alone", withPools("-straggle-every-us", "100"), "needs -straggle-for-us and -straggle-factor"},
		{"straggle factor alone", withPools("-straggle-factor", "3"), "need -straggle-every-us"},
		{"NaN straggle factor", withPools("-straggle-every-us", "10", "-straggle-for-us", "5", "-straggle-factor", "NaN"), "finite multiplier > 1"},
		{"sub-unity straggle factor", withPools("-straggle-every-us", "10", "-straggle-for-us", "5", "-straggle-factor", "0.5"), "finite multiplier > 1"},
		{"stall mean alone", withPools("-stall-every-us", "100"), "needs a positive -stall-for-us"},
		{"stall bound alone", withPools("-stall-max-us", "50"), "need -stall-every-us"},
		{"stall bound below mean", withPools("-stall-every-us", "100", "-stall-for-us", "50", "-stall-max-us", "10"), "below -stall-for-us"},
		{"negative retries", withPools("-retries", "-1"), "must not be negative"},
		{"backoff without retries", withPools("-retry-backoff-us", "10"), "positive -retries budget"},
		{"backoff cap below base", withPools("-retries", "2", "-retry-backoff-us", "100", "-retry-backoff-cap-us", "10"), "below -retry-backoff-us"},
		{"bad crash grammar", withPools("-crash", "1:40"), "not pool:at_µs:down_µs"},
		{"bad crash pool", withPools("-crash", "x:40:120"), "bad pool"},
		{"NaN crash start", withPools("-crash", "1:NaN:120"), "bad start"},
		{"zero crash outage", withPools("-crash", "1:40:0"), "bad outage"},
		{"crash outside fleet", withPools("-crash", "7:40:120"), "outside the 2-pool fleet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runBinary(t, tc.args...)
			if code == 0 {
				t.Fatalf("usage error exited 0\n%s", out)
			}
			if !strings.Contains(out, "exit status 2") {
				t.Fatalf("child did not exit with usage status 2\n%s", out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output %q does not contain %q", out, tc.want)
			}
		})
	}
}

// TestAdaptiveFlagValidation: the adaptive-routing flag grammar fails
// fast with usage, before any simulation runs.
func TestAdaptiveFlagValidation(t *testing.T) {
	pools := []string{"-pools", "hipe,x86", "-archs", "auto"}
	withPools := func(args ...string) []string { return append(append([]string{}, pools...), args...) }
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"adaptive without pools", []string{"-adaptive"}, "-adaptive needs -pools"},
		{"explore without adaptive", withPools("-explore-pct", "5"), "need -adaptive"},
		{"halflife without adaptive", withPools("-obs-halflife", "16"), "need -adaptive"},
		{"buckets without adaptive", withPools("-buckets", "4"), "need -adaptive"},
		{"explore at 100", withPools("-adaptive", "-explore-pct", "100"), "must be in [0, 100)"},
		{"negative explore", withPools("-adaptive", "-explore-pct", "-1"), "must be in [0, 100)"},
		{"NaN explore", withPools("-adaptive", "-explore-pct", "NaN"), "must be in [0, 100)"},
		{"negative halflife", withPools("-adaptive", "-obs-halflife", "-2"), "non-negative finite sample count"},
		{"Inf halflife", withPools("-adaptive", "-obs-halflife", "+Inf"), "non-negative finite sample count"},
		{"too many buckets", withPools("-adaptive", "-buckets", "65"), "outside 0..64"},
		{"negative buckets", withPools("-adaptive", "-buckets", "-1"), "outside 0..64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runBinary(t, tc.args...)
			if code == 0 {
				t.Fatalf("usage error exited 0\n%s", out)
			}
			if !strings.Contains(out, "exit status 2") {
				t.Fatalf("child did not exit with usage status 2\n%s", out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output %q does not contain %q", out, tc.want)
			}
		})
	}
}

// TestAdaptiveFleetRuns drives a feedback-routed fleet end to end and
// checks the adaptive provenance columns reach the CSV export.
func TestAdaptiveFleetRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real load test")
	}
	code, out := runBinary(t,
		"-shards", "2", "-requests", "12", "-tuples", "1024",
		"-mode", "open", "-qps", "400000", "-clustered",
		"-pools", "hipe,x86", "-archs", "auto",
		"-adaptive", "-explore-pct", "10", "-obs-halflife", "4",
		"-quiet", "-csv", "-")
	if code != 0 {
		t.Fatalf("adaptive serve failed (%d)\n%s", code, out)
	}
	for _, want := range []string{"route_mode", "obs_cycles", "bucket_samples", "explored", "adaptive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("adaptive serve CSV lacks %q\n%s", want, out)
		}
	}
}

// TestFaultedFleetRuns drives a crashing, straggling fleet with the
// full recovery policy end to end and checks the degraded-mode summary
// and fault counters surface.
func TestFaultedFleetRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real load test")
	}
	code, out := runBinary(t,
		"-shards", "2", "-requests", "16", "-tuples", "1024",
		"-mode", "open", "-qps", "400000",
		"-pools", "hipe,hipe", "-archs", "auto",
		"-classes", "batch:400:50,rt:200:0",
		"-crash", "1:40:120", "-crash-every-us", "500", "-crash-down-us", "150",
		"-straggle-every-us", "300", "-straggle-for-us", "100", "-straggle-factor", "3",
		"-retries", "2", "-retry-backoff-us", "5", "-timeout-us", "400",
		"-hedge-us", "150", "-failover",
		"-quiet")
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out)
	}
	for _, want := range []string{"faults", "recovery", "SLO"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
