package lanai

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// Params describes one NIC's hardware. Defaults model the paper's
// M2L/M2M-PCI64A-2 cards: a LANai processor (we use 66 MHz), 2 MB of
// SRAM, and a single host DMA engine on a 64-bit/33 MHz PCI bus.
type Params struct {
	// Freq is the LANai processor clock.
	Freq units.Frequency
	// DispatchCycles is the event-handler overhead per dispatched
	// handler.
	DispatchCycles int
	// HostDMABandwidth is the effective host<->NIC transfer rate over
	// the I/O bus. PCI 64/33 peaks at 264 MB/s; sustained transfers
	// see less.
	HostDMABandwidth units.Bandwidth
	// HostDMAStartup is the fixed latency to start one host DMA
	// transaction (bus acquisition, descriptor fetch).
	HostDMAStartup units.Time
	// ChunkOverhead is the per-descriptor cost of every chunk after
	// the first in a chained (chunked) transfer.
	ChunkOverhead units.Time
	// SRAMBytes is the NIC memory size (bounds the buffer pool).
	SRAMBytes int
}

// DefaultParams returns the calibrated testbed NIC constants.
func DefaultParams() Params {
	return Params{
		Freq:             66 * units.MHz,
		DispatchCycles:   2,
		HostDMABandwidth: 220 * units.MBs,
		HostDMAStartup:   500 * units.Nanosecond,
		ChunkOverhead:    120 * units.Nanosecond,
		SRAMBytes:        2 << 20,
	}
}

// NIC aggregates the hardware resources the MCP firmware drives: the
// processor and the single host DMA engine (shared by the SDMA and
// RDMA state machines; the two packet-interface DMAs are modelled by
// the fabric's injection/drain pacing).
type NIC struct {
	eng *sim.Engine
	par Params
	// CPU is the LANai processor.
	CPU *CPU
	// hostDMA serialises host<->NIC transfers.
	hostDMA *sim.Resource
	// HostDMABusy accumulates host DMA engine busy time.
	HostDMABusy units.Time
	// HostDMATransfers counts completed host DMA transactions.
	HostDMATransfers uint64

	// ops recycles the DMA operation records.
	ops sim.FreeList[dmaOp]
	// Long-lived engine callbacks shared by every transfer.
	fnGrant    func()
	fnFinish   func(any)
	fnChainEnd func(any)
}

// dmaOp is one host DMA transaction. It owns the host DMA engine
// (it is the Resource owner) from grant to completion and carries the
// completion callback and its argument. Records come from the NIC's
// free list and go back to it when the transfer completes.
type dmaOp struct {
	nbytes int
	// chunk is the chunk size of a chained transfer (0: one transfer).
	chunk int
	// Exactly one of done (HostDMA) and ready (HostDMAChunked) is set.
	done  func(arg any, t units.Time)
	ready func(arg any, firstChunkAt, doneAt units.Time)
	arg   any
}

// NewNIC builds a NIC on the shared engine.
func NewNIC(eng *sim.Engine, par Params) *NIC {
	n := &NIC{
		eng:     eng,
		par:     par,
		CPU:     NewCPU(eng, par.Freq, par.DispatchCycles),
		hostDMA: sim.NewResource("hostDMA"),
	}
	n.fnGrant = n.grant
	n.fnFinish = n.finish
	n.fnChainEnd = n.chainEnd
	return n
}

// Params returns the NIC's hardware constants.
func (n *NIC) Params() Params { return n.par }

// HostDMA performs a host<->NIC transfer of n bytes: it queues on the
// single host DMA engine, pays the startup latency plus the transfer
// time, then runs done(arg, t). Callers model SDMA (host to NIC send
// buffer) and RDMA (NIC receive buffer to host) with it, passing a
// long-lived done and a pointer arg so a transfer allocates nothing.
func (n *NIC) HostDMA(nbytes int, done func(arg any, t units.Time), arg any) {
	op := n.ops.Get()
	op.nbytes, op.done, op.arg = nbytes, done, arg
	n.hostDMA.Acquire(op, n.fnGrant)
}

// HostDMAQueued reports whether transfers are waiting on the engine.
func (n *NIC) HostDMAQueued() int { return n.hostDMA.QueueLen() }

// HostDMAOutstanding returns the DMA operation records checked out of
// the free list: transfers queued on or holding the engine. A drained
// NIC reads zero.
func (n *NIC) HostDMAOutstanding() int { return n.ops.Out() }

// HostDMAChunked performs a chained host DMA of nbytes in chunks: the
// GM "SDMA chunks" pipeline of the MCP's Figure 4 structure. ready is
// called with arg when the engine grants, with the time the first
// chunk will be in NIC memory (the wire may start then) and the time
// the last byte lands. Every chunk after the first pays the
// descriptor-chaining overhead; the engine stays busy until the final
// chunk.
func (n *NIC) HostDMAChunked(nbytes, chunkBytes int, ready func(arg any, firstChunkAt, doneAt units.Time), arg any) {
	op := n.ops.Get()
	op.nbytes, op.ready, op.arg = nbytes, ready, arg
	if chunkBytes > 0 && chunkBytes < nbytes {
		op.chunk = chunkBytes
	}
	// Otherwise degenerate: a single transfer, reported as ready(t, t).
	n.hostDMA.Acquire(op, n.fnGrant)
}

func (n *NIC) putOp(op *dmaOp) {
	*op = dmaOp{}
	n.ops.Put(op)
}

// grant runs when the engine is granted to the operation that now owns
// it.
func (n *NIC) grant() {
	op := n.hostDMA.Owner().(*dmaOp)
	if op.chunk == 0 {
		d := n.par.HostDMAStartup + units.TransferTime(op.nbytes, n.par.HostDMABandwidth)
		n.HostDMABusy += d
		n.eng.ScheduleArg(d, n.fnFinish, op)
		return
	}
	now := n.eng.Now()
	chunks := (op.nbytes + op.chunk - 1) / op.chunk
	first := now + n.par.HostDMAStartup + units.TransferTime(op.chunk, n.par.HostDMABandwidth)
	done := now + n.par.HostDMAStartup +
		units.TransferTime(op.nbytes, n.par.HostDMABandwidth) +
		units.Time(chunks-1)*n.par.ChunkOverhead
	n.HostDMABusy += done - now
	op.ready(op.arg, first, done)
	n.eng.ScheduleArgAt(done, n.fnChainEnd, op)
}

// finish completes a single transfer: the engine passes to the next
// waiter, then the caller's callback runs.
func (n *NIC) finish(a any) {
	op := a.(*dmaOp)
	n.hostDMA.Release(op)
	n.HostDMATransfers++
	done, ready, arg := op.done, op.ready, op.arg
	n.putOp(op)
	t := n.eng.Now()
	if ready != nil {
		ready(arg, t, t)
		return
	}
	done(arg, t)
}

// chainEnd frees the engine after the final chunk of a chained
// transfer (its caller was told the completion time at grant).
func (n *NIC) chainEnd(a any) {
	op := a.(*dmaOp)
	n.hostDMA.Release(op)
	n.HostDMATransfers++
	n.putOp(op)
}
