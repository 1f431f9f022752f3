// The process-wide machine pool. Building a machine allocates its whole
// world (memory image, caches, vault engines); Reset restores a used
// machine to a state bit-identical to a freshly built one
// (TestResetMatchesFreshMachine in internal/sweep pins this, across
// architectures, Q06 and Q01 plans and uniform and date-clustered
// tables), so pooling changes wall-clock and allocation cost only —
// never simulated results. Every exact run in the process — sweep cells,
// serving shard tasks, sweep.Config.Run — draws its machine with Get and
// returns it with Put, so a process builds its machines once for as
// many exact calls as it makes with one configuration.
package machine

import "sync"

// pool holds the idle machines of one configuration at a time: a Put of
// a machine built from another configuration drops them. Idle machines
// are thus bounded by one configuration's peak concurrency, and callers
// that alternate configurations rebuild, as they would without a pool.
var pool struct {
	mu   sync.Mutex
	cfg  Config
	idle []*Machine
}

// Get returns a machine built from cfg in its post-New state: an idle
// one from the pool when it holds machines of cfg, else a new one.
// Return it with Put once nothing of the run is read from it any more.
func Get(cfg Config) (*Machine, error) {
	pool.mu.Lock()
	if n := len(pool.idle); n > 0 && pool.cfg == cfg {
		m := pool.idle[n-1]
		pool.idle[n-1] = nil
		pool.idle = pool.idle[:n-1]
		pool.mu.Unlock()
		m.idle.Store(false)
		return m, nil
	}
	pool.mu.Unlock()
	return New(cfg)
}

// Put resets m and makes it idle in the pool, dropping the idle
// machines of any other configuration. Reset is safe even after a run
// abandoned mid-flight, so every path of a run, failed ones included,
// returns its machine. The caller must not touch m afterwards; a second
// Put before the next Get panics, since Get would hand the machine to
// two callers.
func Put(m *Machine) {
	if m.idle.Swap(true) {
		panic("machine: Put of a machine already in the pool")
	}
	m.Reset()
	pool.mu.Lock()
	if pool.cfg != m.cfg {
		clear(pool.idle)
		pool.idle = pool.idle[:0]
		pool.cfg = m.cfg
	}
	pool.idle = append(pool.idle, m)
	pool.mu.Unlock()
}
