// A free list of reusable machines. Building a machine allocates its
// whole world (memory image, caches, vault engines); Reset restores a
// used machine to a state bit-identical to a freshly built one
// (machine_test.go pins this), so pooling changes wall-clock and
// allocation cost only — never simulated results. The serving cluster
// and the sweep engine's cell driver both draw per-task machines from a
// Pool instead of rebuilding the world per task.
package machine

import "sync"

// Pool recycles machines of one configuration. The zero value is not
// usable; build pools with NewPool. Safe for concurrent Get/Put.
type Pool struct {
	cfg  Config
	mu   sync.Mutex
	free []*Machine
}

// NewPool returns an empty pool building machines from cfg on demand.
func NewPool(cfg Config) *Pool { return &Pool{cfg: cfg} }

// Get draws a pooled (already Reset) machine, or builds one.
func (p *Pool) Get() (*Machine, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return m, nil
	}
	p.mu.Unlock()
	return New(p.cfg)
}

// Put resets a machine and returns it to the free list. Reset is safe
// even after a run abandoned mid-flight, so failed tasks keep the pool
// warm.
func (p *Pool) Put(m *Machine) {
	m.Reset()
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}
