package machine

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"
)

// poolConfig is a small machine configuration of its own, so no other
// test's idle machines match it. Tests never assume the pool is cold.
func poolConfig(imageKiB uint64) Config {
	cfg := Default()
	cfg.ImageBytes = imageKiB << 10
	return cfg
}

func mustGet(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPoolReusesResetMachines(t *testing.T) {
	cfg := poolConfig(192)
	m1 := mustGet(t, cfg)
	m1.Image[7] = 1
	m1.Registry.Scope("test").Counter("dirty").Inc()
	Put(m1)
	m2 := mustGet(t, cfg)
	if m2 != m1 {
		t.Fatal("Get built a machine instead of reusing the idle one")
	}
	if m2.Image[7] != 0 {
		t.Error("a reused machine's image was not reset")
	}
	if v, _ := m2.Registry.Lookup("test.dirty"); v != 0 {
		t.Errorf("a reused machine's counter reads %d, want 0", v)
	}
	// m2 is out: a second Get must not hand it out again.
	m3 := mustGet(t, cfg)
	if m3 == m2 {
		t.Fatal("Get handed one machine to two callers")
	}
	Put(m2)
	Put(m3)
}

func TestPutOfAnotherConfigDropsIdleMachines(t *testing.T) {
	a, b := poolConfig(256), poolConfig(320)
	a1, a2 := mustGet(t, a), mustGet(t, a)
	gone := []weak.Pointer[Machine]{weak.Make(a1), weak.Make(a2)}
	Put(a1)
	Put(a2)
	b1 := mustGet(t, b)
	if b1 == a1 || b1 == a2 {
		t.Fatal("Get handed out a machine of another configuration")
	}
	Put(b1)
	// The bound: the pool now holds b1 alone, and nothing keeps a's
	// idle machines alive.
	pool.mu.Lock()
	idle := slices.Clone(pool.idle)
	pool.mu.Unlock()
	if len(idle) != 1 || idle[0] != b1 {
		t.Fatalf("after a Put of another configuration the pool holds %d idle machines, want b's one", len(idle))
	}
	runtime.GC()
	for _, w := range gone {
		if w.Value() != nil {
			t.Fatal("an idle machine of the previous configuration is still reachable")
		}
	}
	if m := mustGet(t, a); m == b1 {
		t.Fatal("Get handed out a machine of another configuration")
	}
	if m := mustGet(t, b); m != b1 {
		t.Fatal("the last configuration's idle machine was not reused")
	}
}

func TestDoublePutPanics(t *testing.T) {
	m := mustGet(t, poolConfig(384))
	Put(m)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Put of an idle machine did not panic")
		}
	}()
	Put(m)
}

// TestPoolNeverHandsOneMachineToTwoCallers runs Get and Put from
// several goroutines over two configurations, so idle machines are
// reused and dropped concurrently, and fails when one machine is out
// to two callers at once. Run it under -race.
func TestPoolNeverHandsOneMachineToTwoCallers(t *testing.T) {
	cfgs := []Config{poolConfig(448), poolConfig(512)}
	var owners sync.Map
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				cfg := cfgs[(g+i/5)%len(cfgs)]
				m, err := Get(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if m.cfg != cfg {
					t.Error("Get returned a machine of another configuration")
				}
				if _, taken := owners.LoadOrStore(m, g); taken {
					t.Error("Get handed one machine to two callers")
				}
				m.Image[g] = byte(i) // a race here under -race is a shared machine
				owners.Delete(m)
				Put(m)
			}
		}()
	}
	wg.Wait()
}
