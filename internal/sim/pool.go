package sim

// Pool is the free list behind a timing model's pooled event objects
// (MSHRs, ROB entries, link and engine operation contexts). Get hands
// out the object Put back last, or builds one with fresh; fresh is where
// an object pre-binds its callbacks, so that cost is paid once per
// object, never per event. Steady-state Get/Put pairs allocate nothing.
//
// A pool belongs to one model instance and is not safe for concurrent
// use; it is not a sync.Pool, so its objects, each bound to its owner,
// survive garbage collection. An object still in flight when its owner
// resets is abandoned with the engine's event queue, not returned.
//
// The zero value is an empty pool ready for use.
type Pool[T any] struct {
	free []*T
}

// Get returns the object Put back last, or fresh() when the pool is
// empty.
func (p *Pool[T]) Get(fresh func() *T) *T {
	n := len(p.free)
	if n == 0 {
		return fresh()
	}
	x := p.free[n-1]
	p.free = p.free[:n-1]
	return x
}

// Put returns x to the pool. Nothing may reference x afterwards except
// through a later Get.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }
