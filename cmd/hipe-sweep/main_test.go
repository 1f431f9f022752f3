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

func TestQ1CutsFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero cutoff", []string{"-q1cuts", "0"}, "outside the generated"},
		{"negative cutoff", []string{"-q1cuts", "-5"}, "outside the generated"},
		{"cutoff past range", []string{"-q1cuts", "9999"}, "outside the generated"},
		{"garbage cutoff", []string{"-q1cuts", "abc"}, "bad -q1cuts entry"},
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

func TestQ1SweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	code, out := runBinary(t,
		"-archs", "hipe", "-opsizes", "256", "-unrolls", "8",
		"-tuples", "1024", "-q1cuts", "2436", "-quiet")
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out)
	}
	if !strings.Contains(out, "/q1") {
		t.Fatalf("summary lacks a Q01 cell:\n%s", out)
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
}

// TestExecFlagValidation pins the CLI-level exec-mode refusals: unknown
// modes list the registry, and estimate mode rejects the outputs it
// cannot produce before anything runs. Estimate mode with -cell-shards
// is not refused: it prices every shard and exports both markers.
func TestExecFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
		runs bool // the flags run a sweep instead of failing with usage status 2
	}{
		{"unknown mode", []string{"-exec", "psychic"}, `unknown exec mode "psychic"`, false},
		{"mode choices listed", []string{"-exec", "psychic"}, "exact, estimate", false},
		{"estimate with counters", []string{"-exec", "estimate", "-counters"}, "cannot capture machine counters", false},
		{"estimate with shards", []string{"-exec", "estimate", "-cell-shards", "4",
			"-archs", "hipe", "-opsizes", "256", "-unrolls", "32", "-tuples", "1024", "-quiet", "-csv", "-"},
			"exec_mode", true},
		{"negative shards", []string{"-cell-shards", "-2"}, "must not be negative", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runBinary(t, tc.args...)
			switch {
			case tc.runs:
				if code != 0 {
					t.Fatalf("sweep failed (%d)\n%s", code, out)
				}
				header := strings.SplitN(out, "\n", 2)[0]
				if !strings.Contains(header, "shards") {
					t.Fatalf("CSV header %q lacks the shards column", header)
				}
			case code == 0:
				t.Fatalf("usage error exited 0\n%s", out)
			case !strings.Contains(out, "exit status 2"):
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
	for _, want := range []string{"grid axes:", "workload:", "execution:", "export:", "profiling:", "-exec", "-cell-shards"} {
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

// TestEstimateSweepRuns: -exec estimate produces the exec_mode CSV
// column and runs the whole grid through the cost model.
func TestEstimateSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	code, out := runBinary(t,
		"-archs", "hipe,auto", "-opsizes", "256", "-unrolls", "32",
		"-tuples", "1024", "-quiet", "-exec", "estimate", "-csv", "-")
	if code != 0 {
		t.Fatalf("estimate sweep failed (%d)\n%s", code, out)
	}
	if !strings.Contains(out, "exec_mode") || !strings.Contains(out, "estimate") {
		t.Fatalf("estimate sweep CSV lacks the exec_mode marker\n%s", out)
	}
}

// TestShardedSweepRuns: -cell-shards splits each cell into parallel
// shard simulations and records the shard count in the export.
func TestShardedSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	code, out := runBinary(t,
		"-archs", "hipe", "-opsizes", "256", "-unrolls", "32",
		"-tuples", "1024", "-quiet", "-cell-shards", "4", "-csv", "-")
	if code != 0 {
		t.Fatalf("sharded sweep failed (%d)\n%s", code, out)
	}
	if !strings.Contains(out, "shards") {
		t.Fatalf("sharded sweep CSV lacks the shards column\n%s", out)
	}
}

// TestAutoArchSweepRuns: -archs auto produces planner-routed cells with
// routing columns in the CSV export.
func TestAutoArchSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	code, out := runBinary(t,
		"-archs", "auto", "-opsizes", "256", "-unrolls", "32",
		"-tuples", "1024", "-quiet", "-csv", "-")
	if code != 0 {
		t.Fatalf("auto sweep failed (%d)\n%s", code, out)
	}
	if !strings.Contains(out, "routed_arch") || !strings.Contains(out, "est_cycles") {
		t.Fatalf("auto sweep CSV lacks routing columns\n%s", out)
	}
	if !strings.Contains(out, "auto,") {
		t.Fatalf("auto sweep CSV lacks the auto arch marker\n%s", out)
	}
}
