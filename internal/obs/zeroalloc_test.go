package obs

import "testing"

// TestCountersDisabledZeroAlloc pins the off state of the observability
// layer to zero allocations: the disabled tracer (nil *Trace) and the
// On() gate that call sites wrap span-argument construction in must not
// allocate, so a run with observability off pays nothing. CI's perf
// job runs this pin alongside the engine and stats ones.
func TestCountersDisabledZeroAlloc(t *testing.T) {
	var tr *Trace
	if n := testing.AllocsPerRun(100, func() {
		// The call-site pattern: gate first, record only when on.
		if tr.On() {
			tr.Instant("route", "routing", 0, 0, 0, Arg{"arch", "hipe"})
		}
		tr.Begin("q", "request", 0, 0, 0)
		tr.Complete("q/shard0", "shard", 1, 0, 0, 10)
		tr.End("q", "request", 0, 0, 10)
	}); n != 0 {
		t.Fatalf("disabled tracer allocates: %v allocs/op", n)
	}
	var p *Profile
	if n := testing.AllocsPerRun(100, func() {
		if p.Enabled() {
			t.Error("nil profile reports enabled")
		}
	}); n != 0 {
		t.Fatalf("disabled profile check allocates: %v allocs/op", n)
	}
}
