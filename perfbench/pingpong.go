package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

// Ping-pong parameters: the paper's gm_allsize loop.
const (
	pingIterations = 100
	pingWarmup     = 3
	paperMCPns     = 125  // Fig. 7 average overhead
	paperMCPMaxNs  = 300  // Fig. 7 bound on the largest overhead
	paperITBns     = 1300 // Fig. 8 cost per ITB
)

// pingSizes draws the message sizes of a seed: the powers of two from
// 1 B to 4 KB (the paper's set, smallest included) plus one size drawn
// from each quarter of every octave between them. The strata keep the
// bytes a seed offers within a few percent of every other seed's.
func pingSizes(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{1}
	for lo := 2; lo < 4096; lo *= 2 {
		sizes = append(sizes, lo)
		w := max(lo/4, 1)
		for s := lo; s < 2*lo; s += w {
			sizes = append(sizes, s+rng.Intn(w))
		}
	}
	sizes = append(sizes, 4096)
	sort.Ints(sizes)
	return sizes
}

// pingUDForward and pingBack are the explicit up*/down* forward and
// common return routes of Fig. 8 on the testbed with a loopback cable on
// switch 2 (see topology.Testbed for the port map). Both forward paths,
// this one and the ITB route built in runPingPong, cross five switches;
// the ITB one ejects once at the in-transit host.
var (
	pingUDForward = []byte{0, 5, 1, 4, 2}
	pingBack      = []byte{0, 5}
)

// pingCell runs one firmware/path configuration of the ping-pong and
// returns the half round trip per size.
func (p *pass) pingCell(sizes []int, variant mcp.Variant, loopback bool, forward []byte, fwdType packet.Type) ([]units.Time, error) {
	start := time.Now()
	var topo *topology.Topology
	var nodes topology.TestbedNodes
	p.timed("topology", func() {
		topo, nodes = topology.Testbed()
		if loopback {
			topo.Connect(nodes.Switch2, 5, nodes.Switch2, 6, topology.LAN)
		}
	})
	var tbl *routing.Table
	var err error
	p.timed("routing.BuildTable", func() { tbl, err = routing.BuildTable(topo, topology.BuildUpDown(topo), routing.UpDownRouting) })
	if err != nil {
		return nil, err
	}
	p.routes += tbl.Len()
	ccfg := core.DefaultConfig(topo, routing.UpDownRouting, variant)
	ccfg.Engine = legacyPrebuilt(tbl)
	ccfg.Metrics = p.reg
	var cl *core.Cluster
	p.timed("core.NewCluster", func() { cl, err = core.NewCluster(ccfg) })
	if err != nil {
		return nil, err
	}
	p.setup += time.Since(start)

	a, b := cl.Host(nodes.Host1), cl.Host(nodes.Host2)
	var sendErr error
	send := func(from, to *gm.Host, size int, route []byte, typ packet.Type) {
		p.flows++
		err := p.send(cl.Eng, func() error {
			if route != nil {
				from.SendVia(to.Node(), make([]byte, size), route, typ)
				return nil
			}
			return from.Send(to.Node(), make([]byte, size))
		})
		if err != nil && sendErr == nil {
			sendErr = err
		}
	}
	var back []byte
	if forward != nil {
		back = pingBack
	}
	halves := make([]units.Time, 0, len(sizes))
	for _, size := range sizes {
		rounds, measured := 0, 0
		var sent, sum units.Time
		b.OnMessage = func(topology.NodeID, []byte, units.Time) {
			p.callback("gm.deliver", cl.Eng, func() { send(b, a, size, back, packet.TypeGM) })
		}
		a.OnMessage = func(_ topology.NodeID, _ []byte, t units.Time) {
			p.callback("gm.deliver", cl.Eng, func() {
				if rounds >= pingWarmup {
					sum += (t - sent) / 2
					measured++
				}
				rounds++
				if rounds < pingIterations+pingWarmup {
					sent = cl.Eng.Now()
					send(a, b, size, forward, fwdType)
				}
			})
		}
		sent = cl.Eng.Now()
		send(a, b, size, forward, fwdType)
		// A closed loop drains on its own; the deadline only bounds a
		// wedged run.
		p.runSim(cl, cl.Eng.Now()+units.Second)
		if sendErr != nil {
			return nil, sendErr
		}
		if measured != pingIterations {
			return nil, fmt.Errorf("size %d: %d of %d round trips completed", size, measured, pingIterations)
		}
		if err := checkStuck(cl); err != nil {
			return nil, fmt.Errorf("size %d: %w", size, err)
		}
		halves = append(halves, sum/pingIterations)
	}
	a.OnMessage, b.OnMessage = nil, nil
	p.publish(cl)
	return halves, clusterCounts(cl).check()
}

func runPingPong(p *pass, seed int64) {
	sizes := pingSizes(seed)
	itbForward, err := packet.BuildITBRoute([][]byte{{0, 1, 6}, {4, 2}})
	if err != nil {
		panic(err) // static route
	}
	type cfg struct {
		name     string
		variant  mcp.Variant
		loopback bool
		forward  []byte
		typ      packet.Type
	}
	cells := []cfg{
		{"fig7-original", mcp.Original, false, nil, packet.TypeGM},
		{"fig7-itb", mcp.ITB, false, nil, packet.TypeGM},
		{"fig8-ud", mcp.ITB, true, pingUDForward, packet.TypeGM},
		{"fig8-ud-itb", mcp.ITB, true, itbForward, packet.TypeITB},
	}
	res := make([][]units.Time, len(cells))
	for i, c := range cells {
		p.cell(c.name, func() error {
			var err error
			res[i], err = p.pingCell(sizes, c.variant, c.loopback, c.forward, c.typ)
			if err == nil && i == 1 && res[0] != nil {
				err = checkMCPBound(sizes, res[0], res[1])
			}
			return err
		})
	}
	for _, r := range res {
		if len(r) != len(sizes) {
			return
		}
	}
	var mcpSum, itbSum units.Time
	for i := range sizes {
		mcpSum += res[1][i] - res[0][i]
		itbSum += 2 * (res[3][i] - res[2][i])
	}
	n := units.Time(len(sizes))
	p.sim["sim_mcp_overhead_ns"] = float64(mcpSum/n) / float64(units.Nanosecond)
	p.sim["sim_itb_hop_ns"] = float64(itbSum/n) / float64(units.Nanosecond)
	p.simN["sim_mcp_overhead_ns"] = len(sizes)
	p.simN["sim_itb_hop_ns"] = len(sizes)
}

// checkMCPBound fails the ITB firmware's cell when its overhead over the
// original firmware reaches the paper's bound at any size.
func checkMCPBound(sizes []int, original, itb []units.Time) error {
	for i, size := range sizes {
		if over := itb[i] - original[i]; over >= paperMCPMaxNs*units.Nanosecond {
			return fmt.Errorf("size %d: MCP overhead %v breaks the paper's %d ns bound", size, over, paperMCPMaxNs)
		}
	}
	return nil
}
