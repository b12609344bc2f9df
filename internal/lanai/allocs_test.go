package lanai

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// Posting and dispatching a handler is the LANai model's inner loop
// (every MCP event handler goes through it); after warmup it must not
// allocate: tasks are heap values, the completion callback is the
// CPU's long-lived doneFn, and the engine reuses event slots.
func TestCPUPostDispatchSteadyStateDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	par := DefaultParams()
	c := NewCPU(eng, par.Freq, par.DispatchCycles)
	fn := func() {}
	for i := 0; i < 32; i++ {
		c.Post(PrioRecv, 10, fn)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		c.Post(PrioRecv, 10, fn)
		c.Post(PrioITB, 5, fn) // preempts in the queue, not on the core
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("Post+dispatch allocates %.1f/op in steady state, want 0", allocs)
	}
}

// PostArg carries a pointer argument to a long-lived handler; boxing
// the pointer does not allocate, so posting and dispatching stay
// allocation-free.
func TestCPUPostArgSteadyStateDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	par := DefaultParams()
	c := NewCPU(eng, par.Freq, par.DispatchCycles)
	sink := 0
	afn := func(a any) { *(a.(*int))++ }
	for i := 0; i < 32; i++ {
		c.PostArg(PrioRecv, 10, afn, &sink)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		c.PostArg(PrioRecv, 10, afn, &sink)
		c.PostArg(PrioITB, 5, afn, &sink)
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("PostArg+dispatch allocates %.1f/op in steady state, want 0", allocs)
	}
}

// A host DMA draws its operation record from the NIC's free list and
// returns it on completion, so queued, plain and chained transfers
// allocate nothing once the list is warm, and a drained NIC has no
// record checked out.
func TestHostDMASteadyStateDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	nic := NewNIC(eng, DefaultParams())
	sink := 0
	done := func(a any, _ units.Time) { *(a.(*int))++ }
	ready := func(a any, _, _ units.Time) { *(a.(*int))++ }
	round := func() {
		nic.HostDMA(4096, done, &sink)
		nic.HostDMAChunked(4096, 1024, ready, &sink) // queues behind
		nic.HostDMAChunked(512, 4096, ready, &sink)  // degenerate
		eng.Run()
	}
	for i := 0; i < 8; i++ {
		round()
	}
	before := sink
	allocs := testing.AllocsPerRun(200, round)
	if allocs != 0 {
		t.Errorf("host DMA allocates %.1f/op in steady state, want 0", allocs)
	}
	if sink == before {
		t.Fatal("no DMA completed during the pin run")
	}
	if n := nic.HostDMAOutstanding(); n != 0 {
		t.Errorf("%d DMA records outstanding after the engine drained, want 0", n)
	}
}
