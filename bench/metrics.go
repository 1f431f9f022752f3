package main

import "github.com/hipe-sim/hipe/internal/obs"

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// perLayer are the metrics a traced run reports, on every workload; a
// metric that has no meaning on a workload reads 0 there.
var perLayer = []metricDef{
	// Host self time per pass, from the traced pass's spans.
	{"db.generate_ms", "ms"},
	{"db.partition_ms", "ms"},
	{"db.selectivity_ms", "ms"},
	{"machine.new_ms", "ms"},
	{"machine.reset_ms", "ms"},
	{"query.prepare_ms", "ms"},
	{"query.codegen_ms", "ms"},
	{"machine.run_self_ms", "ms"},
	{"query.verify_ms", "ms"},
	{"energy.audit_ms", "ms"},
	{"obs.capture_ms", "ms"},
	{"cost.pick_us", "us"},
	{"cost.estimate_us", "us"},
	{"serve.replay_ms", "ms"},
	{"bench.self_ms", "ms"},
	{"trace.coverage_pct", "%"},
	{"trace_overhead_pct", "%"},
	{"sweep.parallel_eff", "ratio"},
	// Isolated layer drivers.
	{"sim.ns_per_event", "ns"},
	{"cpu.ns_per_cycle.stalled", "ns"},
	{"cpu.ns_per_uop.alu", "ns"},
	{"cache.ns_per_access", "ns"},
	{"dram.ns_per_access", "ns"},
	{"link.ns_per_packet", "ns"},
	{"hmc.ns_per_inst", "ns"},
	{"core.ns_per_inst", "ns"},
	// Simulated counters per pass, from the traced pass's machines.
	{"sim.events", "count"},
	{"sim.events_per_uop", "ratio"},
	{"cpu.uops", "count"},
	{"cpu.cycles", "cycles"},
	{"cpu.ipc", "ratio"},
	{"cpu.rob_full_share", "ratio"},
	{"cpu.mispredicts", "count"},
	{"cache.l1d_hit_rate", "ratio"},
	{"cache.l3_miss", "count"},
	{"cache.prefetch_useful_ratio", "ratio"},
	{"dram.reads", "count"},
	{"dram.bytes_read", "B"},
	{"dram.bytes_written", "B"},
	{"dram.row_hit_rate", "ratio"},
	{"link.packets", "count"},
	{"link.bytes", "B"},
	{"hmc.insts", "count"},
	{"hmc.window_rejects", "count"},
	{"hive.insts", "count"},
	{"hipe.insts", "count"},
	{"hipe.squash_ratio", "ratio"},
	{"hipe.saved_dram_share", "ratio"},
	{"core.interlock_stall_cycles", "cycles"},
	{"energy.dram_pj", "pJ"},
	{"serve.sims", "count"},
	{"serve.shed", "count"},
	{"serve.retries", "count"},
	{"serve.degraded", "count"},
	{"serve.pool_util", "ratio"},
	// Simulated outcomes, deterministic for a seed.
	{"sim_muops_per_s", "Muops/s"},
	{"paper_err_pct", "%"},
	{"estimate_err_pct", "%"},
	{"sim_p50_cycles.knee", "cycles"},
	{"sim_p99_cycles.knee", "cycles"},
	{"sim_p99_cycles.over", "cycles"},
	{"slo_attain_pct", "%"},
	{"max_ok_rate_rpmc", "1/Mcycle"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics derives the per-layer counter metrics from the summed
// machine counters of a traced pass.
func counterMetrics(c *obs.Counters, m map[string]float64) {
	get := func(keys ...string) float64 {
		var sum uint64
		for _, k := range keys {
			v, _ := c.Get(k)
			sum += v
		}
		return float64(sum)
	}
	uops, cycles := get("cpu0.committed_uops"), get("cpu0.active_cycles")
	m["sim.events"] = get("engine.events_executed")
	m["sim.events_per_uop"] = ratio(m["sim.events"], uops)
	m["cpu.uops"] = uops
	m["cpu.cycles"] = cycles
	m["cpu.ipc"] = ratio(uops, cycles)
	m["cpu.rob_full_share"] = ratio(get("cpu0.rob_full_stalls"), cycles)
	m["cpu.mispredicts"] = get("cpu0.branch_mispredicts")
	l1hits := get("l1d.read_hits", "l1d.write_hits")
	m["cache.l1d_hit_rate"] = ratio(l1hits, l1hits+get("l1d.read_misses", "l1d.write_misses"))
	m["cache.l3_miss"] = get("l3.read_misses", "l3.write_misses")
	m["cache.prefetch_useful_ratio"] = ratio(
		get("l1d.prefetches_useful", "l2.prefetches_useful", "l3.prefetches_useful"),
		get("l1d.prefetches_issued", "l2.prefetches_issued", "l3.prefetches_issued"))
	m["dram.reads"] = get("dram.reads")
	m["dram.bytes_read"] = get("dram.bytes_read")
	m["dram.bytes_written"] = get("dram.bytes_written")
	m["dram.row_hit_rate"] = ratio(get("dram.row_hits"), get("dram.reads", "dram.writes"))
	m["link.packets"] = get("link.req_packets", "link.resp_packets")
	m["link.bytes"] = get("link.req_bytes", "link.resp_bytes")
	m["hmc.insts"] = get("hmc.instructions")
	m["hmc.window_rejects"] = get("hmc.window_rejects")
	m["hive.insts"] = get("hive.instructions")
	m["hipe.insts"] = get("hipe.instructions")
	m["hipe.squash_ratio"] = ratio(get("hipe.squashed"), get("hipe.instructions"))
	m["hipe.saved_dram_share"] = ratio(get("hipe.squashed_dram_bytes"),
		get("hipe.dram_read_bytes", "hipe.squashed_dram_bytes"))
	m["core.interlock_stall_cycles"] = get("hive.interlock_stall_cycles", "hipe.interlock_stall_cycles")
}
