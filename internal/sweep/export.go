// Exporters: CSV for spreadsheets/plotting toolchains (through the
// obs.CSV encoder), JSON for programmatic consumers. Both emit cells in
// index order with deterministic number formatting, so a sweep's export
// is byte-stable across runs and worker counts.
package sweep

import (
	"encoding/json"
	"io"
	"sort"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
)

// CSVHeader is the column layout of WriteCSV, one column per cell axis
// and per reported metric. Result sets containing auto-arch cells
// append RoutingCSVHeader's routing-decision columns, so fixed-arch
// exports stay byte-identical to their pre-planner form.
var CSVHeader = []string{
	"index", "arch", "strategy", "opsize_b", "unroll", "fused", "aggregate",
	"tuples", "seed", "clustered", "noise_days",
	"ship_lo", "ship_hi", "disc_lo", "disc_hi", "qty_hi", "selectivity",
	"cycles", "cycles_per_tuple", "speedup",
	"dram_pj", "total_pj", "squashed", "squashed_dram_bytes", "checked",
}

// RoutingCSVHeader returns the columns appended for sweeps with
// auto-arch cells: the backend the planner chose and its estimated
// cycles (the arch column keeps "auto", so the routing is auditable
// against the estimate and the measured cycles side by side).
func RoutingCSVHeader() []string { return []string{"routed_arch", "est_cycles"} }

// HasRouting reports whether any cell in the set was routed by the
// adaptive planner.
func (rs *ResultSet) HasRouting() bool {
	for i := range rs.Cells {
		if rs.Cells[i].Routing != nil {
			return true
		}
	}
	return false
}

// HasModes reports whether any cell ran in a non-default execution
// mode (estimate): only then does the CSV carry an exec_mode column, so
// exact exports are byte-identical to their pre-mode form.
func (rs *ResultSet) HasModes() bool {
	for i := range rs.Cells {
		if rs.Cells[i].Mode != ExecExact {
			return true
		}
	}
	return false
}

// HasSharding reports whether any cell ran as a parallel shard
// simulation: only then does the CSV carry a shards column, so
// whole-table exports are byte-identical to their pre-sharding form.
func (rs *ResultSet) HasSharding() bool {
	for i := range rs.Cells {
		if rs.Cells[i].Shards > 0 {
			return true
		}
	}
	return false
}

// HasCounters reports whether any cell carries a machine-counter
// snapshot (sweeps run with Options.Counters).
func (rs *ResultSet) HasCounters() bool {
	for i := range rs.Cells {
		if rs.Cells[i].Counters.Len() > 0 {
			return true
		}
	}
	return false
}

// counterKeys returns the sorted union of every cell's counter keys —
// the "ctr_<key>" column set.
func (rs *ResultSet) counterKeys() []string {
	var keys []string
	seen := map[string]bool{}
	for i := range rs.Cells {
		ctr := rs.Cells[i].Counters
		for j := range ctr.Len() {
			if k := ctr.KeyAt(j); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// WriteCSV writes the set as CSV with CSVHeader's columns, plus — in
// this order, each only when active — RoutingCSVHeader's columns for
// auto-arch cells, an exec_mode column for estimate-mode runs, a shards
// column for parallel shard simulations, and one "ctr_<key>" column per
// captured machine counter. A plain exact whole-table counter-off
// export keeps the original schema byte-for-byte.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	routed := rs.HasRouting()
	modes := rs.HasModes()
	sharded := rs.HasSharding()
	var ctrKeys []string
	if rs.HasCounters() {
		ctrKeys = rs.counterKeys()
	}
	enc := obs.NewCSV(w)
	enc.Strings(CSVHeader...)
	if routed {
		enc.Strings(RoutingCSVHeader()...)
	}
	if modes {
		enc.String("exec_mode")
	}
	if sharded {
		enc.String("shards")
	}
	for _, k := range ctrKeys {
		enc.String("ctr_" + k)
	}
	if err := enc.EndRow(); err != nil {
		return err
	}
	for i := range rs.Cells {
		c := &rs.Cells[i]
		p, q, r := &c.Cell.Plan, c.Cell.Plan.Q, &c.Result
		if p.Kind == query.Q1Agg {
			// Aggregation rows render their filter in the shared date
			// columns, [0, ShipCut] as a half-open range; the discount
			// and quantity bounds read zero, which no Q06 row has — the
			// schema stays fixed, so Q06-only exports are byte-stable.
			q = db.Q06{ShipLo: 0, ShipHi: p.Q1.ShipCut + 1}
		}
		enc.Int(int64(c.Index))
		enc.String(p.Arch.String())
		enc.String(p.Strategy.String())
		enc.Uint(uint64(p.OpSize))
		enc.Int(int64(p.Unroll))
		enc.Bool(p.Fused)
		enc.Bool(p.Aggregate)
		enc.Int(int64(c.Cell.Tuples))
		enc.Uint(c.Cell.Seed)
		enc.Bool(c.Cell.Clustered)
		enc.Int(int64(c.Cell.NoiseDays))
		enc.Int(int64(q.ShipLo))
		enc.Int(int64(q.ShipHi))
		enc.Int(int64(q.DiscLo))
		enc.Int(int64(q.DiscHi))
		enc.Int(int64(q.QtyHi))
		enc.Float(c.Selectivity)
		enc.Uint(r.Cycles)
		enc.Float(float64(r.Cycles) / float64(c.Cell.Tuples))
		enc.Float(c.Speedup)
		enc.Float(r.Energy.DRAMPJ())
		enc.Float(r.Energy.TotalPJ())
		enc.Uint(r.Squashed)
		enc.Uint(r.SquashedDRAMBytes)
		enc.Int(int64(r.Checked))
		if routed {
			if d := c.Routing; d != nil {
				enc.String(d.Chosen.Arch.String())
				enc.Cycles(d.Estimates[d.ChosenIndex].Cycles)
			} else {
				enc.Empty()
				enc.Empty()
			}
		}
		if modes {
			enc.String(c.Mode.String())
		}
		if sharded {
			enc.Int(int64(c.Shards))
		}
		for _, k := range ctrKeys {
			if v, ok := c.Counters.Get(k); ok {
				enc.Uint(v)
			} else {
				enc.Empty()
			}
		}
		if err := enc.EndRow(); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// WriteJSON writes the set as indented JSON: {"cells": [...]}.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// ReadJSON decodes a set previously written by WriteJSON.
func ReadJSON(r io.Reader) (*ResultSet, error) {
	rs := &ResultSet{}
	if err := json.NewDecoder(r).Decode(rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// MarshalJSON emits the cells under a stable "cells" key.
func (rs *ResultSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Cells []CellResult `json:"cells"`
	}{rs.Cells})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (rs *ResultSet) UnmarshalJSON(data []byte) error {
	var v struct {
		Cells []CellResult `json:"cells"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	rs.Cells = v.Cells
	return nil
}
