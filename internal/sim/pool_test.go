package sim

import "testing"

type pooled struct{ id int }

// TestPoolGetPutZeroAlloc pins the free list every timing model's event
// objects come from: Get hands back the object Put last, fresh runs
// only when the pool is empty, and a warm Get/Put pair allocates
// nothing.
func TestPoolGetPutZeroAlloc(t *testing.T) {
	var p Pool[pooled]
	built := 0
	fresh := func() *pooled {
		built++
		return &pooled{id: built}
	}
	a, b := p.Get(fresh), p.Get(fresh)
	if built != 2 || a == b {
		t.Fatalf("empty pool: built %d objects, a=%p b=%p", built, a, b)
	}
	p.Put(a)
	p.Put(b)
	if got := p.Get(fresh); got != b {
		t.Fatalf("Get returned object %d, want %d (the last Put)", got.id, b.id)
	}
	if got := p.Get(fresh); got != a {
		t.Fatalf("Get returned object %d, want %d", got.id, a.id)
	}
	if built != 2 {
		t.Fatalf("fresh ran %d times with objects pooled, want 2", built)
	}
	if got := p.Get(fresh); built != 3 || got.id != 3 {
		t.Fatalf("drained pool: fresh ran %d times, got object %d", built, got.id)
	}

	p.Put(a)
	if n := testing.AllocsPerRun(1000, func() { p.Put(p.Get(fresh)) }); n != 0 {
		t.Fatalf("warm Get/Put allocates %.1f times, want 0", n)
	}
	if built != 3 {
		t.Fatalf("warm Get/Put ran fresh: %d objects built", built)
	}
}
