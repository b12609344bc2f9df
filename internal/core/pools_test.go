package core

import (
	"testing"

	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

// CheckPools reads the records in motion, so it must flag a run cut
// off mid-transfer and pass once the engine has drained.
func TestCheckPoolsFlagsRecordsInMotion(t *testing.T) {
	topo, nodes := topology.Testbed()
	cl, err := NewCluster(DefaultConfig(topo, routing.UpDownRouting, mcp.Original))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Host(nodes.Host1).Send(nodes.Host2, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	// Past the host send overhead, inside the 4 KB SDMA.
	cl.Eng.RunFor(gm.DefaultParams().HostSendOverhead + 2*units.Microsecond)
	if err := cl.CheckPools(); err == nil {
		t.Fatal("CheckPools passed with a send in flight")
	}
	cl.Eng.Run()
	if err := cl.CheckPools(); err != nil {
		t.Fatal(err)
	}
}

// The experiments run the pool ledger after every drained run (fig7,
// every fault campaign, every churn campaign). These runs reach the
// drop paths — buffer-pool flushes, dead-peer verdicts, resurrections
// and stale in-transit flushes — and must still balance.
func TestPoolLedgerBalancesOnDropPaths(t *testing.T) {
	if _, err := RunFig7(Fig7Config{Sizes: []int{1, 4096}, Iterations: 5, Warmup: 1}); err != nil {
		t.Fatal(err)
	}
	fcfg := smallFaultStudy(routing.ITBRouting)
	fcfg.DropStaleITB = true
	rep, err := RunFaultStudy(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	var poolDrops, dead, resurrected, stale uint64
	for _, c := range rep.Campaigns {
		poolDrops += c.PoolDrops
		dead += c.PeersDead
		resurrected += c.Resurrections
		stale += c.StaleDrops
	}
	rcfg := smallRecoveryStudy()
	rcfg.Detector = recovery.DetectorGossip
	rcfg.DropStaleITB = true
	res, err := RunRecoveryStudy(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		resurrected += row.Resurrections
		stale += row.StaleDrops
	}
	t.Logf("pool drops %d, dead peers %d, resurrections %d, stale drops %d", poolDrops, dead, resurrected, stale)
	if poolDrops == 0 || dead == 0 || resurrected == 0 {
		t.Errorf("drop paths not reached: pool drops %d, dead peers %d, resurrections %d", poolDrops, dead, resurrected)
	}
}
