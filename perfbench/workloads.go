package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// workloadDef is one benchmark workload: its name, why it exists, and
// the function that runs one round, every cell once.
type workloadDef struct {
	name string
	why  string
	run  func(p *pass, seed int64)
}

var workloads = []workloadDef{
	{"paper-pingpong", "the paper's Fig. 7/8 closed-loop ping-pong: per-packet MCP/LANai path with a shallow heap, no contention and trivial routing", runPingPong},
	{"openloop-dragonfly", "open-loop Poisson websearch flows on dragonfly-72 under updown-itb across the knee: ITB route set-up and wormhole contention", runOpenLoop},
	{"allreduce-load", "ring allreduce beside open-loop GM-port background load with acks: deep event heap, retransmits, admission shedding, allocation", runAllreduce},
	{"churn-gossip", "gossip-detector churn study on 16-switch irregular topologies: recovery, faults and lazy incremental route rebuilds", runChurn},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// pass is one round of a workload. An untraced pass has a nil tr and
// reg, and keeps only what the end-to-end metrics and the correctness
// checks need.
type pass struct {
	tr  *tracer
	reg *metrics.Registry

	runs     []cellRun
	setup    time.Duration // summed over cells
	failed   int
	failures []string

	// sim holds the simulated (sim_*) results, deterministic per seed;
	// simN holds the sample count behind a percentile or mean.
	sim  map[string]float64
	simN map[string]int

	// Counts the benchmark takes in its own code.
	flows       int // messages or flows the workload offered
	sendNs      stats.Summary
	sends, shed uint64
	events      uint64
	pendingPeak int
	routes      int // routes built by the benchmark's BuildTable calls
	// ledger is the per-layer values of a traced round.
	ledger map[string]float64
}

func newPass(traced bool) *pass {
	p := &pass{sim: map[string]float64{}, simN: map[string]int{}}
	if traced {
		p.tr = newTracer()
		p.reg = metrics.NewRegistry()
	}
	return p
}

// release drops a traced round's spans, registry and send samples once
// its ledger is taken.
func (p *pass) release() {
	p.tr, p.reg, p.sendNs = nil, nil, stats.Summary{}
}

// cellRun is the host cost of one cell, measured from outside.
type cellRun struct {
	wall, setup time.Duration
	allocBytes  float64
	gcCycles    float64
	gcCPU, cpu  float64 // seconds of GC CPU and of all CPU
}

// cell runs one cell under its span, measures it and counts it; an
// error or a failed check marks it failed.
func (p *pass) cell(name string, fn func() error) { p.replicaCell(name, nil, fn) }

// replicaCell is cell for a study that does its set-up internally:
// replica repeats that set-up so it can be timed. It runs under the
// cell's span and counts in the cell's setup, but before the cell's
// clock starts and its garbage is collected, so it adds nothing to the
// cell's wall time or allocations.
func (p *pass) replicaCell(name string, replica, fn func() error) {
	// Every cell starts from a collected heap, so its GC work does not
	// depend on what the cell before it left behind.
	runtime.GC()
	setup := p.setup
	sp := p.tr.startCell(len(p.runs))
	var err error
	if replica != nil {
		err = replica()
		runtime.GC()
	}
	before := readRuntime()
	start := time.Now()
	if err == nil {
		err = fn()
	}
	wall := time.Since(start)
	p.tr.end(sp)
	after := readRuntime()
	p.runs = append(p.runs, cellRun{
		wall: wall, setup: p.setup - setup,
		allocBytes: after.allocBytes - before.allocBytes,
		gcCycles:   after.gcCycles - before.gcCycles,
		gcCPU:      after.gcCPU - before.gcCPU,
		cpu:        after.cpu - before.cpu,
	})
	if err != nil {
		p.failed++
		p.failures = append(p.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

// timed runs fn under a span named name.
func (p *pass) timed(name string, fn func()) {
	sp := p.tr.begin(name)
	fn()
	p.tr.end(sp)
}

// callback wraps a simulation callback the benchmark owns (a gm send or
// deliver) in a span and samples the event-heap depth; untraced it is
// a plain call.
func (p *pass) callback(name string, eng *sim.Engine, fn func()) {
	if p.tr == nil {
		fn()
		return
	}
	p.pendingPeak = max(p.pendingPeak, eng.Pending())
	sp := p.tr.begin(name)
	fn()
	p.tr.end(sp)
}

// send times one GM send call; failed sends count as shed.
func (p *pass) send(eng *sim.Engine, fn func() error) error {
	if p.tr == nil {
		return fn()
	}
	p.pendingPeak = max(p.pendingPeak, eng.Pending())
	sp := p.tr.begin("gm.send")
	start := time.Now()
	err := fn()
	p.sendNs.Add(float64(time.Since(start).Nanoseconds()))
	p.tr.end(sp)
	p.sends++
	if err != nil {
		p.shed++
	}
	return err
}

// runSim advances a cluster's engine under a sim.RunUntil span and
// counts its events.
func (p *pass) runSim(cl *core.Cluster, until units.Time) {
	before := cl.Eng.Fired()
	p.timed("sim.RunUntil", func() { cl.Eng.RunUntil(until) })
	p.events += cl.Eng.Fired() - before
}

// netCounts are the fabric counters the conservation check reads.
type netCounts struct{ inj, del, drop, killed uint64 }

func clusterCounts(cl *core.Cluster) netCounts {
	s := cl.Net.Stats()
	return netCounts{s.Injected, s.Delivered, s.Dropped, s.FaultKilled}
}

// check is the per-cell conservation check. Fault kills are already
// included in drops (fabric.Counters), so delivered plus dropped may
// not exceed injected, and fault kills may not exceed drops.
func (c netCounts) check() error {
	if c.del+c.drop > c.inj || c.killed > c.drop {
		return fmt.Errorf("fabric conservation broken: injected %d, delivered %d, dropped %d, fault-killed %d",
			c.inj, c.del, c.drop, c.killed)
	}
	return nil
}

// checkStuck fails a closed-loop cell whose drained fabric still holds
// packets.
func checkStuck(cl *core.Cluster) error {
	if stuck := cl.DetectStuck(); len(stuck) > 0 {
		return fmt.Errorf("%d flights stuck after the drain", len(stuck))
	}
	return nil
}

// publish adds a cell's end-of-run counters to the traced pass's
// registry (counters sum across cells).
func (p *pass) publish(cl *core.Cluster) {
	cl.PublishMetrics(p.reg)
}

// subSeed derives the seed of replica r of a workload's cells.
func subSeed(seed int64, r int) int64 { return seed + int64(r)*1000003 }

// runtimeStats are the runtime/metrics counters read around every cell.
type runtimeStats struct{ allocBytes, gcCycles, gcCPU, cpu float64 }

var rtSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeStats {
	rtmetrics.Read(rtSamples)
	v := make([]float64, len(rtSamples))
	for i, s := range rtSamples {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case rtmetrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return runtimeStats{allocBytes: v[0], gcCycles: v[1], gcCPU: v[2], cpu: v[3]}
}
