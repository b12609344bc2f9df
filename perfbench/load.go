package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/workload"
)

// The load study's timing and topology, as itbsim -exp load uses them.
const (
	loadWarmup = 50 * units.Microsecond
	loadWindow = 250 * units.Microsecond
	loadHosts  = 72
	loadEngine = "updown-itb"
	vectorLen  = 256
)

var (
	openLoopLoads  = []float64{0.2, 0.5, 0.8}
	allreduceLoads = []float64{0.5, 0.8}
)

// prebuilt hands core.NewCluster a table the benchmark already built,
// so the routing build is timed as its own span and is not repeated
// inside NewCluster.
type prebuilt struct {
	routing.Engine
	tbl *routing.Table
}

func (e prebuilt) BuildTable(*topology.Topology, *routing.Avoid) (*routing.Table, error) {
	return e.tbl, nil
}

// legacyPrebuilt hands core.NewCluster a table of the legacy
// routing.BuildTable over topology.BuildUpDown. NewCluster uses only
// the engine's orientation, BuildUpDown as on the legacy path, and its
// single lane, so the cluster is the one the legacy path wires.
func legacyPrebuilt(tbl *routing.Table) prebuilt {
	return prebuilt{Engine: routing.UpDownITBEngine{}, tbl: tbl}
}

// loadCluster builds the topology, the route table and the cluster of
// one load-study cell: the paper's buffer pool on every NIC, acks as
// asked.
func (p *pass) loadCluster(acks bool) (*topology.Topology, *core.Cluster, error) {
	var topo *topology.Topology
	var err error
	p.timed("topology", func() { topo, err = topology.Dragonfly(topology.DefaultDragonflyConfig(loadHosts)) })
	if err != nil {
		return nil, nil, err
	}
	eng, _ := routing.EngineByName(loadEngine)
	var tbl *routing.Table
	p.timed("routing.BuildTable", func() { tbl, err = eng.BuildTable(topo, nil) })
	if err != nil {
		return nil, nil, err
	}
	p.routes += tbl.Len()
	ccfg := core.DefaultConfig(topo, routing.ITBRouting, mcp.ITB)
	ccfg.Engine = prebuilt{Engine: eng, tbl: tbl}
	ccfg.GM.DisableAcks = !acks
	ccfg.MCP.BufferPool = true
	ccfg.MCP.RecvBuffers = 64
	ccfg.Metrics = p.reg
	var cl *core.Cluster
	p.timed("core.NewCluster", func() { cl, err = core.NewCluster(ccfg) })
	return topo, cl, err
}

// The send time rides in the first 8 payload bytes, little-endian, the
// layout the load study uses.
func encodeStamp(b []byte, t units.Time) { binary.LittleEndian.PutUint64(b, uint64(t)) }

func decodeStamp(b []byte) units.Time { return units.Time(binary.LittleEndian.Uint64(b)) }

// openLoopCell runs one open-loop uniform cell and returns its study
// row, every delivery's FCT sample, and the flows offered and
// delivered over the whole run.
func (p *pass) openLoopCell(seed int64, load float64, lat *stats.Summary) (core.LoadRow, int, int, error) {
	row := core.LoadRow{Preset: fmt.Sprintf("dragonfly-%d", loadHosts), Pattern: "uniform",
		Engine: loadEngine, Offered: load}
	start := time.Now()
	topo, cl, err := p.loadCluster(false)
	if err != nil {
		return row, 0, 0, err
	}
	endAt := loadWarmup + loadWindow
	var flows []workload.Flow
	p.timed("workload.Plan", func() {
		flows, err = workload.Plan(topo, workload.PlanConfig{
			Scenario:      workload.ScenarioUniform,
			Load:          load,
			Arrival:       workload.ArrivalConfig{Kind: workload.Poisson},
			Sizes:         workload.WebSearch(),
			Seed:          seed + 1,
			Horizon:       endAt,
			LinkBandwidth: cl.Net.Params().LinkBandwidth,
		})
	})
	if err != nil {
		return row, 0, 0, err
	}
	row.Hosts = len(topo.Hosts())
	var cellLat stats.Summary
	var deliveredBytes uint64
	delivered := 0
	for _, h := range topo.Hosts() {
		cl.Host(h).OnMessage = func(_ topology.NodeID, payload []byte, t units.Time) {
			p.callback("gm.deliver", cl.Eng, func() {
				delivered++
				sentAt := decodeStamp(payload)
				if sentAt < loadWarmup || sentAt >= endAt {
					return
				}
				if t <= endAt {
					deliveredBytes += uint64(len(payload))
				}
				row.FlowsDone++
				cellLat.Add(float64(t - sentAt))
			})
		}
	}
	senders := map[topology.NodeID]bool{}
	for _, f := range flows {
		senders[f.Src] = true
		if f.Start >= loadWarmup {
			row.FlowsSent++
		}
		f := f
		cl.Eng.ScheduleAt(f.Start, func() {
			payload := make([]byte, f.Bytes)
			encodeStamp(payload, cl.Eng.Now())
			if err := p.send(cl.Eng, func() error { return cl.Host(f.Src).Send(f.Dst, payload) }); err != nil {
				panic(err) // every dragonfly pair has a route
			}
		})
	}
	p.flows += len(flows)
	p.setup += time.Since(start)
	p.runSim(cl, endAt+loadWindow/2)
	if n := cellLat.N(); n > 0 {
		row.P50 = units.Time(cellLat.Percentile(50))
		row.P99 = units.Time(cellLat.Percentile(99))
		row.P999 = units.Time(cellLat.Percentile(99.9))
		for _, v := range cellLat.Values() {
			lat.Add(v)
		}
	}
	row.Delivered = float64(deliveredBytes) / loadWindow.Seconds() /
		float64(len(senders)) / float64(cl.Net.Params().LinkBandwidth)
	p.publish(cl)
	return row, len(flows), delivered, clusterCounts(cl).check()
}

func runOpenLoop(p *pass, seed int64) {
	var lat stats.Summary
	var goodput float64
	offered, delivered, ok := 0, 0, 0
	for _, load := range openLoopLoads {
		p.cell(fmt.Sprintf("uniform-load%.1f", load), func() error {
			row, off, del, err := p.openLoopCell(seed, load, &lat)
			if err == nil {
				goodput += row.Delivered
				offered += off
				delivered += del
				ok++
			}
			return err
		})
	}
	if ok == 0 {
		return
	}
	p.sim["sim_goodput"] = goodput / float64(ok)
	p.sim["sim_loss_frac"] = 1 - float64(delivered)/float64(offered)
	p.simN["sim_loss_frac"] = offered
	p.setFCT(&lat, true)
}

// setFCT records the FCT median and, when resolved and wanted, the p99.
func (p *pass) setFCT(lat *stats.Summary, withTail bool) {
	n := lat.N()
	if n == 0 || !tailResolved(n, 50) {
		return
	}
	p.sim["sim_fct_p50_us"] = lat.Percentile(50) / float64(units.Microsecond)
	p.simN["sim_fct_p50_us"] = n
	if withTail && tailResolved(n, 99) {
		p.sim["sim_fct_p99_us"] = lat.Percentile(99) / float64(units.Microsecond)
		p.simN["sim_fct_p99_us"] = n
	}
}

// allreduceCell runs the ring allreduce over open-loop background
// traffic sent through token-limited GM ports, as the load study does.
// It returns the study row and the background offered/delivered counts.
func (p *pass) allreduceCell(seed int64, load float64, lat *stats.Summary) (core.LoadRow, int, int, error) {
	row := core.LoadRow{Preset: fmt.Sprintf("dragonfly-%d", loadHosts), Pattern: "allreduce",
		Engine: loadEngine, Offered: load}
	start := time.Now()
	topo, cl, err := p.loadCluster(true)
	if err != nil {
		return row, 0, 0, err
	}
	hosts := topo.Hosts()
	row.Hosts = len(hosts)
	mix := workload.WebSearch()
	var cellLat stats.Summary
	var coll *workload.Collective
	var startErr error
	ccfg := workload.CollectiveConfig{
		Kind: workload.RingAllreduce, VectorLen: vectorLen,
		Port: 1, SendTokens: 4, RecvTokens: 8,
		OnHop: func(latency, _ units.Time) { cellLat.Add(float64(latency)) },
	}
	cl.Eng.Schedule(loadWarmup, func() {
		coll, startErr = workload.StartAllreduce(cl.Eng, hosts, cl.Host, ccfg)
	})
	gen, err := traffic.NewGenerator(topo, traffic.Config{
		Pattern: traffic.Uniform, MessageSize: workload.MinFlowBytes, Seed: seed + 2,
	})
	if err != nil {
		return row, 0, 0, err
	}
	mean, err := workload.MeanGap(load, mix.MeanBytes(), cl.Net.Params().LinkBandwidth)
	if err != nil {
		return row, 0, 0, err
	}
	const bgPort, bgTokens = 2, 8
	var bgBytes uint64
	offered, delivered := 0, 0
	for i, h := range hosts {
		h := h
		bp, err := cl.Host(h).OpenPort(bgPort, bgTokens)
		if err != nil {
			return row, 0, 0, err
		}
		bp.ProvideReceiveTokens(2 * bgTokens)
		bp.OnReceive = func(_ topology.NodeID, _ uint8, payload []byte, t units.Time) {
			p.callback("gm.deliver", cl.Eng, func() {
				bp.ProvideReceiveTokens(1)
				delivered++
				if t >= loadWarmup && (coll == nil || !coll.Done()) {
					bgBytes += uint64(len(payload))
				}
			})
		}
		ap, err := workload.NewArrival(workload.ArrivalConfig{Kind: workload.Poisson}, mean, seed+3+1000003*int64(i+1))
		if err != nil {
			return row, 0, 0, err
		}
		rng := rand.New(rand.NewSource(seed ^ (0x9E3779B9 * int64(i+1))))
		var tick func()
		tick = func() {
			if coll != nil && coll.Done() {
				return
			}
			msg := gen.NextFrom(h)
			offered++
			// A failed send is an arrival shed by token exhaustion.
			_ = p.send(cl.Eng, func() error { return bp.Send(msg.Dst, bgPort, make([]byte, mix.Sample(rng))) })
			cl.Eng.Schedule(ap.Next(), tick)
		}
		cl.Eng.Schedule(ap.Next(), tick)
	}
	p.setup += time.Since(start)
	deadline := loadWarmup + 4000*loadWindow
	p.runSim(cl, deadline)
	p.flows += offered + 2*(len(hosts)-1)
	switch {
	case startErr != nil:
		return row, 0, 0, startErr
	case coll == nil || !coll.Done():
		return row, 0, 0, fmt.Errorf("allreduce did not complete by %v", deadline)
	}
	if got, want := coll.Checksum(), workload.ExpectedChecksum(len(hosts), vectorLen); got != want {
		return row, 0, 0, fmt.Errorf("allreduce checksum %d, want %d", got, want)
	}
	if err := checkStuck(cl); err != nil {
		return row, 0, 0, err
	}
	span := coll.DoneAt() - loadWarmup
	row.Collective = span
	row.FlowsSent = uint64(2 * (len(hosts) - 1))
	row.FlowsDone = uint64(coll.Hops())
	if cellLat.N() > 0 {
		row.P50 = units.Time(cellLat.Percentile(50))
		row.P99 = units.Time(cellLat.Percentile(99))
		row.P999 = units.Time(cellLat.Percentile(99.9))
		for _, v := range cellLat.Values() {
			lat.Add(v)
		}
	}
	row.Delivered = float64(bgBytes) / span.Seconds() /
		float64(len(hosts)) / float64(cl.Net.Params().LinkBandwidth)
	p.publish(cl)
	return row, offered, delivered, clusterCounts(cl).check()
}

// allreduceReplicas is how many seeds' cells one round runs: a
// single seed's collective time, and with it the background work,
// varies by several percent from seed to seed.
const allreduceReplicas = 3

func runAllreduce(p *pass, seed int64) {
	var lat stats.Summary
	var goodput, collective float64
	offered, delivered, ok := 0, 0, 0
	for r := 0; r < allreduceReplicas; r++ {
		sub := subSeed(seed, r)
		for _, load := range allreduceLoads {
			p.cell(fmt.Sprintf("allreduce-load%.1f-replica%d", load, r), func() error {
				row, off, del, err := p.allreduceCell(sub, load, &lat)
				if err == nil {
					goodput += row.Delivered
					collective += float64(row.Collective) / float64(units.Microsecond)
					offered += off
					delivered += del
					ok++
				}
				return err
			})
		}
	}
	if ok == 0 {
		return
	}
	p.sim["sim_goodput"] = goodput / float64(ok)
	p.sim["sim_collective_us"] = collective / float64(ok)
	p.simN["sim_collective_us"] = ok
	p.sim["sim_loss_frac"] = 1 - float64(delivered)/float64(offered)
	p.simN["sim_loss_frac"] = offered
	p.setFCT(&lat, false)
}
