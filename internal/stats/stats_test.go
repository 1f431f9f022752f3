package stats

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("cpu0")
	c := s.Counter("commits")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if s.Get("commits") != 10 {
		t.Fatalf("scope get = %d, want 10", s.Get("commits"))
	}
	if s.Get("missing") != 0 {
		t.Fatal("missing counter should read 0")
	}
	// Counter identity: same name returns same counter.
	if s.Counter("commits") != c {
		t.Fatal("Counter did not return the existing counter")
	}
}

func TestRegistryLookupAndTotal(t *testing.T) {
	r := NewRegistry()
	for i, v := range []uint64{3, 5, 7} {
		r.Scope("dram.vault" + string(rune('0'+i))).Counter("reads").Add(v)
	}
	if got := r.Total("dram.", "reads"); got != 15 {
		t.Fatalf("Total = %d, want 15", got)
	}
	if v, ok := r.Lookup("dram.vault1.reads"); !ok || v != 5 {
		t.Fatalf("Lookup = %d,%v want 5,true", v, ok)
	}
	if _, ok := r.Lookup("nosuch.reads"); ok {
		t.Fatal("Lookup of missing scope succeeded")
	}
	if _, ok := r.Lookup("nodot"); ok {
		t.Fatal("Lookup without dot succeeded")
	}
	if _, ok := r.Lookup("dram.vault1.nosuch"); ok {
		t.Fatal("Lookup of missing counter succeeded")
	}
}

func TestRegistryStringStable(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("z")
	s.Counter("b").Add(2)
	s.Counter("a").Add(1)
	r.Scope("a").Counter("x").Add(9)
	r.Scope("empty")
	out := r.String()
	// Scopes in creation order, counters sorted.
	zi := strings.Index(out, "[z]")
	ai := strings.Index(out, "[a]")
	if zi < 0 || ai < 0 || zi > ai {
		t.Fatalf("scope order wrong:\n%s", out)
	}
	if strings.Contains(out, "[empty]") {
		t.Fatalf("empty scope rendered:\n%s", out)
	}
	if strings.Index(out, "a ") > strings.Index(out, "b ") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
}

func TestScopesOrder(t *testing.T) {
	r := NewRegistry()
	r.Scope("one")
	r.Scope("two")
	r.Scope("one") // re-fetch must not duplicate
	got := r.Scopes()
	if len(got) != 2 || got[0].Name() != "one" || got[1].Name() != "two" {
		t.Fatalf("scopes = %v", got)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Scope("cpu0").Counter("commits")
	c.Add(42)
	r.Scope("l1d").Counter("read_hits").Add(7)
	r.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter after Reset = %d, want 0", c.Value())
	}
	if got := r.Total("", "read_hits"); got != 0 {
		t.Fatalf("Total after Reset = %d, want 0", got)
	}
	// Scopes and counter identity survive a reset.
	if len(r.Scopes()) != 2 {
		t.Fatalf("scopes after Reset = %d, want 2", len(r.Scopes()))
	}
	if r.Scope("cpu0").Counter("commits") != c {
		t.Fatal("Reset broke counter identity")
	}
}

func TestScopeCounters(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("cache")
	s.Counter("misses")
	s.Counter("hits")
	s.Counter("misses") // re-fetch must not duplicate
	got := s.Counters()
	if len(got) != 2 || got[0] != "misses" || got[1] != "hits" {
		t.Fatalf("Counters() = %v, want [misses hits]", got)
	}
	// The returned slice is a copy: mutating it must not corrupt the scope.
	got[0] = "clobbered"
	if s.Counters()[0] != "misses" {
		t.Fatal("Counters() exposed internal order slice")
	}
}

// TestConcurrentScopes races what the Registry doc promises is safe for
// concurrent callers — scope and counter creation and a scope's
// Counters and Get — against the registry-wide read paths (Scopes,
// Total, Lookup, String), and relies on the -race runs in CI to flag
// unsynchronised access. Counter bumps are unsynchronised by contract,
// so they happen after Wait, on one goroutine.
func TestConcurrentScopes(t *testing.T) {
	names := []string{"ops", "hits", "misses", "evictions"}
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "worker" + strconv.Itoa(g)
			for i := 0; i < 200; i++ {
				s := r.Scope(name)
				s.Counter(names[i%len(names)])
				switch i % 7 {
				case 0:
					r.Scopes()
				case 1:
					r.Total("worker", "ops")
				case 2:
					r.Lookup(name + ".ops")
				case 3:
					_ = r.String()
				case 4:
					s.Counters()
				case 5:
					s.Get("hits")
				case 6:
					// A structure reader, the way obs.Capture keeps its
					// layout in the registry's view slot.
					r.Read(func(l Locked) {
						n := 0
						l.EachCounter(func(string, string, *Counter) { n++ })
						*l.View() = [2]uint64{l.Version(), uint64(n)}
					})
				}
			}
		}(g)
	}
	wg.Wait()
	scopes := r.Scopes()
	if len(scopes) != 8 {
		t.Fatalf("%d scopes after concurrent creation, want 8", len(scopes))
	}
	for _, s := range scopes {
		if got := s.Counters(); !slices.Equal(got, names) {
			t.Fatalf("scope %s counters = %v, want %v in creation order", s.Name(), got, names)
		}
		for i := 0; i < 200; i++ {
			s.Counter("ops").Inc()
		}
	}
	if got := r.Total("worker", "ops"); got != 8*200 {
		t.Fatalf("Total after the bumps = %d, want %d", got, 8*200)
	}
}

// TestVersionMovesOnCreation pins the structure version readers cache
// derived layouts by: creating a scope or a counter moves it, and
// bumping, reading or resetting counters does not.
func TestVersionMovesOnCreation(t *testing.T) {
	r := NewRegistry()
	version := func() (v uint64) {
		r.Read(func(l Locked) { v = l.Version() })
		return v
	}
	v0 := version()
	s := r.Scope("l1d")
	v1 := version()
	c := s.Counter("hits")
	v2 := version()
	c.Add(3)
	r.Lookup("l1d.hits")
	r.Reset()
	s.Counter("hits") // already exists
	r.Scope("l1d")    // already exists
	if v0 == v1 || v1 == v2 || version() != v2 {
		t.Fatalf("versions %d, %d, %d, %d: want a move per creation and none otherwise", v0, v1, v2, version())
	}
}
