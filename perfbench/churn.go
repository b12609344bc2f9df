package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mcp"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

// The gossip churn study, thinned to one protocol period and one
// campaign per generated topology, the topologies alternating between
// two churn levels. Each (topology, churn level) study is one cell. A
// campaign's cost varies with its topology, so a round spreads its
// campaigns over churnTopologies independent topologies.
const (
	churnSwitches   = 16
	churnPeriod     = 150 * units.Microsecond
	churnTopologies = 9
	churnSetupRuns  = 5
)

var churnEvents = []int{3, 6}

func runChurn(p *pass, seed int64) {
	var sent, delivered uint64
	var detect float64
	detN := 0
	for r := 0; r < churnTopologies; r++ {
		sub := subSeed(seed, r)
		churn := churnEvents[r%len(churnEvents)]
		name := fmt.Sprintf("topology%d.churn%d", r, churn)
		p.replicaCell(name, func() error { return p.churnSetup(sub) }, func() error {
			row, err := p.churnStudy(sub, churn, name)
			sent += row.Sent
			delivered += row.Delivered
			if row.DetectionAvg > 0 {
				detect += float64(row.DetectionAvg) / float64(units.Microsecond)
				detN++
			}
			return err
		})
	}
	p.flows += int(sent)
	if sent > 0 {
		p.sim["sim_loss_frac"] = 1 - float64(delivered)/float64(sent)
		p.simN["sim_loss_frac"] = int(sent)
	}
	if detN > 0 {
		p.sim["sim_detect_us"] = detect / float64(detN)
		p.simN["sim_detect_us"] = detN
	}
}

// churnSetup times the set-up the study does internally for the
// topology of seed, by building it again: the same generated topology,
// legacy ITB table and buffer-pool cluster. It builds it churnSetupRuns
// times and counts the median, so one slow build does not move
// setup_s; only the first build is traced.
func (p *pass) churnSetup(seed int64) error {
	tr := p.tr
	defer func() { p.tr = tr }()
	times := make([]float64, churnSetupRuns)
	for i := range times {
		start := time.Now()
		routes, err := p.churnCluster(seed)
		if err != nil {
			return err
		}
		times[i] = time.Since(start).Seconds()
		if i == 0 {
			p.routes += routes
		}
		p.tr = nil
	}
	p.setup += time.Duration(median(times) * float64(time.Second))
	return nil
}

// churnCluster builds the topology, table and cluster of seed as the
// study does, and returns the number of routes built.
func (p *pass) churnCluster(seed int64) (int, error) {
	var topo *topology.Topology
	var err error
	p.timed("topology", func() { topo, err = topology.Generate(topology.DefaultGenConfig(churnSwitches, seed)) })
	if err != nil {
		return 0, err
	}
	var tbl *routing.Table
	p.timed("routing.BuildTable", func() { tbl, err = routing.BuildTable(topo, topology.BuildUpDown(topo), routing.ITBRouting) })
	if err != nil {
		return 0, err
	}
	ccfg := core.DefaultConfig(topo, routing.ITBRouting, mcp.ITB)
	ccfg.Engine = legacyPrebuilt(tbl)
	ccfg.MCP.BufferPool = true
	ccfg.MCP.RecvBuffers = 16
	p.timed("core.NewCluster", func() { _, err = core.NewCluster(ccfg) })
	return tbl.Len(), err
}

// churnStudy runs one campaign of the study at one churn level on the
// topology of seed.
func (p *pass) churnStudy(seed int64, churn int, name string) (core.RecoveryStudyRow, error) {
	cfg := core.DefaultRecoveryStudyConfig(routing.ITBRouting, churnSwitches, seed)
	cfg.Detector = recovery.DetectorGossip
	cfg.Periods = []units.Time{churnPeriod}
	cfg.ChurnEvents = []int{churn}
	cfg.CampaignsPerCell = 1
	if p.reg != nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	var res core.RecoveryStudyResult
	var err error
	p.timed("core.RunRecoveryStudy", func() { res, err = core.RunRecoveryStudy(cfg) })
	if err != nil {
		return core.RecoveryStudyRow{}, err
	}
	row := res.Rows[0]
	if row.Delivered > row.Sent {
		return row, fmt.Errorf("delivered %d of %d sent", row.Delivered, row.Sent)
	}
	// Untraced passes run without a registry, so the per-campaign
	// conservation check of this workload runs in the traced pass.
	if cfg.Metrics != nil {
		if err := checkCampaigns(cfg.Metrics); err != nil {
			return row, err
		}
		p.reg.MergePrefixed(name+".", cfg.Metrics)
	}
	return row, nil
}

// checkCampaigns applies the conservation check to every campaign of
// the study, from the fabric counters it publishes per campaign.
func checkCampaigns(reg *metrics.Registry) error {
	per := map[string]*netCounts{}
	for name, v := range reg.Snapshot().Counters {
		i := strings.LastIndex(name, "fabric.")
		if i < 0 {
			continue
		}
		c := per[name[:i]]
		if c == nil {
			c = &netCounts{}
			per[name[:i]] = c
		}
		switch name[i:] {
		case "fabric.injected":
			c.inj += v
		case "fabric.delivered":
			c.del += v
		case "fabric.dropped":
			c.drop += v
		case "fabric.fault_killed":
			c.killed += v
		}
	}
	campaigns := make([]string, 0, len(per))
	for k := range per {
		campaigns = append(campaigns, k)
	}
	sort.Strings(campaigns)
	for _, k := range campaigns {
		if err := per[k].check(); err != nil {
			return fmt.Errorf("campaign %s: %w", strings.TrimSuffix(k, "."), err)
		}
	}
	return nil
}
