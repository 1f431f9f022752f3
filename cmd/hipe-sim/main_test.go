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

// TestFlagValidation: malformed invocations die with a usage message
// and exit status 2, before any simulation runs.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional arg", []string{"extra"}, "unexpected argument"},
		{"unknown arch", []string{"-arch", "riscv"}, `unknown arch "riscv"`},
		{"auto arch", []string{"-arch", "auto"}, `unknown arch "auto" (have x86, hmc, hive, hipe)`},
		{"unknown strategy", []string{"-strategy", "vector"}, `unknown strategy "vector"`},
		{"bad tuples", []string{"-tuples", "100"}, "positive multiple of 64"},
		{"bad plan shape", []string{"-opsize", "7"}, "usage of hipe-sim"},
		{"opsize past 32 bits", []string{"-opsize", "4294967552"}, "outside the 16..256 byte range"},
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

// TestGroupedUsage pins the subsystem grouping of the help text: every
// group header prints, the usage banner survives, and no flag has
// fallen out of the groups into the trailing "ungrouped" section.
func TestGroupedUsage(t *testing.T) {
	// flag's ExitOnError treats -h as success, so only the output matters.
	_, out := runBinary(t, "-h")
	for _, want := range []string{
		"usage of hipe-sim", "plan:", "table:", "inspection:",
		"-arch", "-print-config",
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

// TestPrintConfig: -print-config dumps the Table I machine table and
// exits cleanly without simulating.
func TestPrintConfig(t *testing.T) {
	code, out := runBinary(t, "-print-config")
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out)
	}
	for _, want := range []string{"Table I machine configuration", "L1D", "HMC", "links"} {
		if !strings.Contains(out, want) {
			t.Fatalf("config dump missing %q:\n%s", want, out)
		}
	}
}

// TestSingleRun simulates one small configuration end to end.
func TestSingleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	code, out := runBinary(t, "-arch", "hipe", "-tuples", "1024")
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out)
	}
	for _, want := range []string{"plan", "cycles", "energy", "all passed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
