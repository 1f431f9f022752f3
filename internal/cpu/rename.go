package cpu

import "github.com/hipe-sim/hipe/internal/isa"

// renameSlots is the rename table's slot count: a power of two well
// above the Table I ROB (168 entries), so the registers of in-flight
// producers rarely share a slot.
const renameSlots = 1024

// renameTable maps each register to its in-flight producer: the latest
// dispatched µop that writes it and has not completed. It has the
// semantics of a map[isa.Reg]*robEntry, stored as a flat table
// direct-mapped on the register's low bits. A slot needs no tag of its
// own: the entry it holds names its register in uop.Dst. When a dispatch
// lands on a slot that another register's producer holds, the displaced
// producer moves to the overflow map, so exactness never depends on
// registers spreading over the slots; in steady state overflow is empty
// and every operation is one slot access.
type renameTable struct {
	slots    [renameSlots]*robEntry
	overflow map[isa.Reg]*robEntry
}

func (t *renameTable) slot(r isa.Reg) **robEntry { return &t.slots[r&(renameSlots-1)] }

// get returns r's registered producer, or nil.
func (t *renameTable) get(r isa.Reg) *robEntry {
	if p := *t.slot(r); p != nil && p.uop.Dst == r {
		return p
	}
	if len(t.overflow) == 0 {
		return nil
	}
	return t.overflow[r]
}

// set registers e as the producer of its destination register, replacing
// any older producer of it.
func (t *renameTable) set(e *robEntry) {
	r := e.uop.Dst
	s := t.slot(r)
	if p := *s; p != nil && p.uop.Dst != r {
		if t.overflow == nil {
			t.overflow = make(map[isa.Reg]*robEntry)
		}
		t.overflow[p.uop.Dst] = p
	}
	*s = e
	if len(t.overflow) > 0 {
		delete(t.overflow, r)
	}
}

// drop removes e's registration, if e is still its register's producer.
func (t *renameTable) drop(e *robEntry) {
	r := e.uop.Dst
	if s := t.slot(r); *s == e {
		*s = nil
		return
	}
	if len(t.overflow) > 0 && t.overflow[r] == e {
		delete(t.overflow, r)
	}
}

// reset drops every registration.
func (t *renameTable) reset() {
	clear(t.slots[:])
	clear(t.overflow)
}
