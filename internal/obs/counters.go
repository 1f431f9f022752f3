// Package obs is the observability layer of the reproduction: a
// machine counter snapshot (Counters), a virtual-time request tracer
// (Trace) with Chrome trace_event and CSV exporters, the CLI profiling
// hooks (Profile), and the CSV encoder (CSV) that every CSV export of
// the repository — these two, the sweep result set and the serve
// report — writes through.
//
// Everything in this package is off by default and free when off: no
// simulation or serving hot path calls into obs unless a caller opted
// in (serve/sweep Options knobs, CLI flags), the off state of the
// tracer is a nil *Trace whose methods are no-ops, and a counter
// snapshot is one registry walk after a run — never inside one.
//
// Everything is deterministic when on: snapshots order their keys,
// traces are recorded only from single-threaded virtual-time replays,
// and both export byte-identically at any executor worker count (the
// determinism.sh gate).
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// Entry is one counter in a snapshot: a "scope.counter" key and its
// value.
type Entry struct {
	Key   string
	Value uint64
}

// Counters is a deterministic machine-counter snapshot: the full
// counter registry of one simulated run (plus the event engine's
// scheduler accounting), flattened to sorted "scope.counter" keys.
// Per-instance scopes collapse to their component family — the 32
// "dram.vaultNN" scopes sum into "dram", the four "linkN" scopes into
// "link" — so snapshots from different machine geometries stay
// comparable and mergeable.
//
// Snapshots merge with Add (shard runs into a request, requests into a
// report) and export as ordered JSON, CSV cells, or an aligned text
// block. The zero value is an empty snapshot.
type Counters struct {
	entries []Entry // sorted by Key
}

// collapseScope maps a per-instance scope name to its component family.
func collapseScope(name string) string {
	if strings.HasPrefix(name, "dram.vault") {
		return "dram"
	}
	if strings.HasPrefix(name, "link") && len(name) > 4 {
		digits := name[4:]
		all := true
		for i := 0; i < len(digits); i++ {
			if digits[i] < '0' || digits[i] > '9' {
				all = false
				break
			}
		}
		if all {
			return "link"
		}
	}
	return name
}

// Capture snapshots reg (and, when non-nil, eng's scheduler accounting
// under the "engine" scope) into a sorted Counters. It reads the
// registry under one lock and retains nothing of the machine, so the
// machine is free to Reset. The snapshot's shape — its sorted keys and
// the key each counter sums into — is built once per registry structure
// and kept with the registry, so a capture of an unchanged registry
// makes two allocations: the snapshot and its entries.
func Capture(reg *stats.Registry, eng *sim.Engine) *Counters {
	if reg == nil {
		reg = stats.NewRegistry() // the engine's accounting alone
	}
	c := &Counters{}
	var l *layout
	reg.Read(func(r stats.Locked) {
		l, _ = (*r.View()).(*layout)
		if l == nil || l.version != r.Version() || l.engine != (eng != nil) {
			l = newLayout(r, eng != nil)
			*r.View() = l
		}
		c.entries = make([]Entry, len(l.keys))
		for i, k := range l.keys {
			c.entries[i].Key = k
		}
		for i, ctr := range l.ctrs {
			c.entries[l.slots[i]].Value += ctr.Value()
		}
	})
	if eng != nil {
		es := eng.Stats()
		for i, v := range [...]uint64{es.Scheduled, es.Executed, es.RingEvents, es.HeapEvents} {
			c.entries[l.engineSlots[i]].Value += v
		}
	}
	return c
}

// engineKeys are the scheduler accounting keys, in Capture's order.
var engineKeys = [...]string{
	"engine.events_scheduled", "engine.events_executed",
	"engine.ring_lane_events", "engine.heap_lane_events",
}

// layout is a snapshot's shape for one registry structure: the sorted
// keys, every counter with the slot among them it sums into, and, when
// the engine is captured too, the slots of the engine keys.
type layout struct {
	version     uint64
	engine      bool
	keys        []string
	ctrs        []*stats.Counter
	slots       []int
	engineSlots [len(engineKeys)]int
}

func newLayout(r stats.Locked, engine bool) *layout {
	l := &layout{version: r.Version(), engine: engine}
	var keys []string // each counter's key, in registry order
	r.EachCounter(func(scope, name string, c *stats.Counter) {
		l.ctrs = append(l.ctrs, c)
		keys = append(keys, collapseScope(scope)+"."+name)
	})
	l.keys = slices.Clone(keys)
	if engine {
		l.keys = append(l.keys, engineKeys[:]...)
	}
	slices.Sort(l.keys)
	l.keys = slices.Compact(l.keys)
	slot := func(k string) int {
		i, _ := slices.BinarySearch(l.keys, k)
		return i
	}
	l.slots = make([]int, len(keys))
	for i, k := range keys {
		l.slots[i] = slot(k)
	}
	if engine {
		for i, k := range engineKeys {
			l.engineSlots[i] = slot(k)
		}
	}
	return l
}

// NewCounters builds a snapshot from a plain key → value map — how the
// serving layer surfaces its own totals (recovery actions, shed
// counts) next to the machine counters. The map is not retained.
func NewCounters(m map[string]uint64) *Counters { return fromMap(m) }

func fromMap(acc map[string]uint64) *Counters {
	c := &Counters{entries: make([]Entry, 0, len(acc))}
	for k, v := range acc {
		c.entries = append(c.entries, Entry{Key: k, Value: v})
	}
	sort.Slice(c.entries, func(i, j int) bool { return c.entries[i].Key < c.entries[j].Key })
	return c
}

// Len reports the number of keys.
func (c *Counters) Len() int {
	if c == nil {
		return 0
	}
	return len(c.entries)
}

// Entries returns the snapshot's entries in sorted key order.
func (c *Counters) Entries() []Entry {
	if c == nil {
		return nil
	}
	return append([]Entry(nil), c.entries...)
}

// KeyAt returns the i-th key in sorted order, 0 <= i < Len().
func (c *Counters) KeyAt(i int) string { return c.entries[i].Key }

// Keys returns the sorted keys.
func (c *Counters) Keys() []string {
	if c == nil {
		return nil
	}
	out := make([]string, len(c.entries))
	for i, e := range c.entries {
		out[i] = e.Key
	}
	return out
}

// Get reports the value at key (0, false when absent). Keys are sorted,
// so the lookup is a binary search.
func (c *Counters) Get(key string) (uint64, bool) {
	if c == nil {
		return 0, false
	}
	i := sort.Search(len(c.entries), func(i int) bool { return c.entries[i].Key >= key })
	if i < len(c.entries) && c.entries[i].Key == key {
		return c.entries[i].Value, true
	}
	return 0, false
}

// Add merges o into c, summing values key-wise (keys only o has are
// inserted). Both snapshots stay sorted; o is unchanged.
func (c *Counters) Add(o *Counters) {
	if o == nil || len(o.entries) == 0 {
		return
	}
	merged := make([]Entry, 0, len(c.entries)+len(o.entries))
	i, j := 0, 0
	for i < len(c.entries) && j < len(o.entries) {
		switch {
		case c.entries[i].Key == o.entries[j].Key:
			merged = append(merged, Entry{c.entries[i].Key, c.entries[i].Value + o.entries[j].Value})
			i++
			j++
		case c.entries[i].Key < o.entries[j].Key:
			merged = append(merged, c.entries[i])
			i++
		default:
			merged = append(merged, o.entries[j])
			j++
		}
	}
	merged = append(merged, c.entries[i:]...)
	merged = append(merged, o.entries[j:]...)
	c.entries = merged
}

// Clone returns an independent copy.
func (c *Counters) Clone() *Counters {
	if c == nil {
		return nil
	}
	return &Counters{entries: append([]Entry(nil), c.entries...)}
}

// String renders the snapshot as aligned "key value" lines in key
// order — stable output for golden tests and report sections.
func (c *Counters) String() string {
	if c == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range c.entries {
		fmt.Fprintf(&b, "%-36s %d\n", e.Key, e.Value)
	}
	return b.String()
}

// MarshalJSON emits the snapshot as one JSON object with keys in sorted
// order — deterministic, unlike a Go map's marshalling of insertion
// history, and byte-stable across runs.
func (c *Counters) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, e := range c.entries {
		if i > 0 {
			b.WriteByte(',')
		}
		k, err := json.Marshal(e.Key)
		if err != nil {
			return nil, err
		}
		b.Write(k)
		fmt.Fprintf(&b, ":%d", e.Value)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (c *Counters) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*c = *fromMap(m)
	return nil
}

// WriteCSV writes the snapshot as a two-column counter,value CSV. A key
// that holds a comma or a quote is quoted, so every row reads back.
func (c *Counters) WriteCSV(w io.Writer) error {
	enc := NewCSV(w)
	enc.Strings("counter", "value")
	if err := enc.EndRow(); err != nil {
		return err
	}
	if c != nil {
		for _, e := range c.entries {
			enc.String(e.Key)
			enc.Uint(e.Value)
			if err := enc.EndRow(); err != nil {
				return err
			}
		}
	}
	return enc.Flush()
}
