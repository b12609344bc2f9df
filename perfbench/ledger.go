package main

import (
	"strings"

	"repro/internal/metrics"
)

// perLayer lists the per-layer metrics with their units, in report
// order. Every workload reports all of them; a layer a workload does
// not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"topology.build_ms", "ms"},
	{"routing.build_table_ms", "ms"},
	{"routing.ns_per_route", "ns"},
	{"routing.routes", "count"},
	{"routing.avg_itbs", "count"},
	{"core.new_cluster_ms", "ms"},
	{"workload.plan_ms", "ms"},
	{"workload.flows", "count"},
	{"sim.run_ms", "ms"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_peak", "count"},
	{"gm.send_ns_p50", "ns"},
	{"gm.send_ns_p99", "ns"},
	{"gm.sends", "count"},
	{"gm.shed_frac", "ratio"},
	{"gm.packets_sent", "count"},
	{"gm.retransmits", "count"},
	{"gm.acks_sent", "count"},
	{"mcp.itb_detects", "count"},
	{"mcp.itb_forwarded", "count"},
	{"mcp.itb_pending_frac", "ratio"},
	{"mcp.peak_hostq", "count"},
	{"mcp.peak_itbq", "count"},
	{"mcp.pool_drops", "count"},
	{"mcp.nic_backlog", "count"},
	{"fabric.injected", "count"},
	{"fabric.delivered_frac", "ratio"},
	{"fabric.waited_ns", "sim_ns"},
	{"fabric.busy_ns", "sim_ns"},
	{"fabric.stall_p99_ns", "sim_ns"},
	{"recovery.probes_sent", "count"},
	{"recovery.hosts_suspected", "count"},
	{"recovery.hosts_confirmed", "count"},
	{"recovery.refutations", "count"},
	{"recovery.epochs_published", "count"},
	{"recovery.routes_reused", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// perLayerNames returns every per-layer metric name, cpu.* included.
func perLayerNames() []string {
	names := make([]string, 0, len(perLayer)+len(cpuBuckets))
	for _, m := range perLayer {
		names = append(names, m.name)
	}
	for _, b := range cpuBuckets {
		names = append(names, "cpu."+b)
	}
	return names
}

// addPerLayer fills the per-layer metrics: timings are medians over
// the traced rounds, counts come from the metrics snapshot the layers
// publish (identical in every round), cpu.* from the profile of the
// traced rounds.
func (r *result) addPerLayer(untraced, traced []*pass, shares map[string]float64, samples int64) {
	r.PerLayer = map[string]metric{}
	for _, m := range perLayer {
		xs := make([]float64, len(traced))
		for i, p := range traced {
			xs[i] = p.ledger[m.name]
		}
		r.PerLayer[m.name] = metric{Value: median(xs), Unit: m.unit}
	}
	wall := func(c cellRun) float64 { return c.wall.Seconds() }
	r.PerLayer["trace.overhead_frac"] = metric{Value: cellMedians(traced, wall)/cellMedians(untraced, wall) - 1,
		Unit: "ratio", Note: "traced over untraced wall_s, minus 1"}
	for _, b := range cpuBuckets {
		r.PerLayer["cpu."+b] = metric{Value: shares[b], Unit: "ratio"}
	}
	r.CPUSamples = samples
}

// ledger computes one traced round's per-layer values.
func ledger(p *pass) map[string]float64 {
	totals := spanTotals(p.tr.spans)
	ms := func(name string) float64 { return float64(totals[name].Total) / 1e6 }
	snap := p.reg.Snapshot()
	l := map[string]float64{}

	l["topology.build_ms"] = ms("topology")
	l["routing.build_table_ms"] = ms("routing.BuildTable")
	l["routing.routes"] = float64(p.routes)
	if p.routes > 0 {
		l["routing.ns_per_route"] = l["routing.build_table_ms"] * 1e6 / float64(p.routes)
	}
	l["routing.avg_itbs"] = meanGauge(snap, "routing.avg_itbs")
	// Every cell hands NewCluster the table it built (prebuilt), so
	// NewCluster's time excludes the routing build.
	l["core.new_cluster_ms"] = ms("core.NewCluster")
	l["workload.plan_ms"] = ms("workload.Plan")
	l["workload.flows"] = float64(p.flows)

	l["sim.run_ms"] = ms("sim.RunUntil") + ms("core.RunRecoveryStudy")
	l["sim.events"] = float64(p.events)
	if p.events > 0 {
		l["sim.ns_per_event"] = ms("sim.RunUntil") * 1e6 / float64(p.events)
	}
	l["sim.pending_peak"] = float64(p.pendingPeak)

	if n := p.sendNs.N(); n > 0 {
		if tailResolved(n, 50) {
			l["gm.send_ns_p50"] = p.sendNs.Percentile(50)
		}
		if tailResolved(n, 99) {
			l["gm.send_ns_p99"] = p.sendNs.Percentile(99)
		}
	}
	l["gm.sends"] = float64(p.sends)
	if p.sends > 0 {
		l["gm.shed_frac"] = float64(p.shed) / float64(p.sends)
	}
	gmPackets := sumCounters(snap, "gm.host", ".packets_sent")
	l["gm.packets_sent"] = gmPackets
	l["gm.retransmits"] = sumCounters(snap, "gm.host", ".retransmits")
	l["gm.acks_sent"] = sumCounters(snap, "gm.host", ".acks_sent")

	detects := sumCounters(snap, "mcp.host", ".itb_detects")
	l["mcp.itb_detects"] = detects
	l["mcp.itb_forwarded"] = sumCounters(snap, "mcp.host", ".itb_forwarded")
	if detects > 0 {
		l["mcp.itb_pending_frac"] = sumCounters(snap, "mcp.host", ".itb_pending_hits") / detects
	}
	l["mcp.peak_hostq"] = maxGauge(snap, "mcp.host", ".peak_hostq")
	l["mcp.peak_itbq"] = maxGauge(snap, "mcp.host", ".peak_itbq")
	l["mcp.pool_drops"] = sumCounters(snap, "mcp.host", ".pool_drops")
	injected := sumCounters(snap, "", "fabric.injected")
	l["mcp.nic_backlog"] = gmPackets - injected

	l["fabric.injected"] = injected
	if injected > 0 {
		l["fabric.delivered_frac"] = sumCounters(snap, "", "fabric.delivered") / injected
	}
	l["fabric.waited_ns"] = sumCounters(snap, "fabric.link", ".waited_ns")
	l["fabric.busy_ns"] = sumCounters(snap, "fabric.link", ".busy_ns")
	for name, h := range snap.Histograms {
		if strings.HasSuffix(name, "fabric.segment_stall_ns") && tailResolved(int(h.Count), 99) {
			l["fabric.stall_p99_ns"] = max(l["fabric.stall_p99_ns"], h.P99)
		}
	}

	for _, c := range []string{"probes_sent", "hosts_suspected", "hosts_confirmed",
		"refutations", "epochs_published", "routes_reused"} {
		l["recovery."+c] = sumCounters(snap, "", "recovery."+c)
	}
	var gcCPU, cpu float64
	for _, c := range p.runs {
		l["runtime.gc_cycles"] += c.gcCycles
		gcCPU += c.gcCPU
		cpu += c.cpu
	}
	if cpu > 0 {
		l["runtime.gc_cpu_frac"] = gcCPU / cpu
	}
	return l
}

// sumCounters adds every counter whose name contains part (after any
// run prefix) and ends in suffix.
func sumCounters(s metrics.Snapshot, part, suffix string) float64 {
	var sum float64
	for name, v := range s.Counters {
		if strings.HasSuffix(name, suffix) && strings.Contains(name, part) {
			sum += float64(v)
		}
	}
	return sum
}

func maxGauge(s metrics.Snapshot, part, suffix string) float64 {
	var m float64
	for name, v := range s.Gauges {
		if strings.HasSuffix(name, suffix) && strings.Contains(name, part) {
			m = max(m, v)
		}
	}
	return m
}

func meanGauge(s metrics.Snapshot, suffix string) float64 {
	var sum float64
	n := 0
	for name, v := range s.Gauges {
		if strings.HasSuffix(name, suffix) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
