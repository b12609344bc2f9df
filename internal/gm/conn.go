package gm

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// conn holds the reliability state between this host and one peer:
// go-back-N sending (window, cumulative acks, timeout retransmission)
// and in-order receiving with message reassembly. GM provides exactly
// this: reliable and ordered packet delivery in the presence of
// drops, which the buffer-pool experiments rely on.
type conn struct {
	h    *Host
	peer topology.NodeID
	// ordinal is the conn's opening order on its host (Host.opened).
	ordinal int

	// Sender state. Sequence numbers count packets, not bytes.
	nextSeq  uint32 // next sequence number to assign
	ackedTo  uint32 // everything below this is acknowledged
	inflight []*packet.Packet
	backlog  sim.FIFO[*packet.Packet] // waiting for window space
	timer    sim.Event
	// win holds the per-seq send bookkeeping (submitted flag, outcome
	// callbacks) for the seqs not yet acknowledged.
	win seqWindow

	// Recovery state (Params.BackoffFactor / DeadPeerTimeouts).
	curTimeout units.Time // current retransmit timeout (backed off)
	strikes    int        // consecutive timeouts without ack progress
	// dead marks the dead-peer verdict. It is no longer permanent: the
	// recovery protocol's epoch-versioned table install (InstallTable)
	// can resurrect the conn, restarting the stream at sequence zero
	// under a new incarnation so that leftovers of the old stream are
	// recognisable and cannot desynchronise the go-back-N window.
	dead bool
	// incarnation is the epoch of the last resurrection (zero for the
	// original stream). Acks carrying an older epoch are stale.
	incarnation uint32

	// Receiver state.
	expected uint32
	assembly []byte // fragments of the in-progress message
	// peerIncarnation mirrors the peer's sender incarnation: adopted
	// when a sequence-zero packet arrives with a newer epoch, after
	// which packets of older incarnations are dropped as stale.
	peerIncarnation uint32
	// Ack coalescing (Params.AckDelay).
	pendingAcks int
	ackTimer    sim.Event

	// Callbacks bound once, so arming a timer or submitting a packet
	// allocates nothing.
	fnTimeout  func()
	fnAckDelay func()
	fnSent     func(*packet.Packet, units.Time)
}

func newConn(h *Host, peer topology.NodeID, ordinal int) *conn {
	c := &conn{h: h, peer: peer, ordinal: ordinal}
	c.fnTimeout = c.timeout
	c.fnAckDelay = c.ackDelayExpired
	c.fnSent = c.sent
	return c
}

// enqueue assigns a sequence number and transmits when the window
// allows. onAcked (optional) fires when this packet is acknowledged;
// onFailed (optional) fires instead if the dead-peer verdict abandons
// it. Enqueueing to an already-dead conn fails at once (from a fresh
// event, so the caller's stack has unwound).
func (c *conn) enqueue(pkt *packet.Packet, onAcked, onFailed func()) {
	if c.dead {
		if pkt.LastFrag {
			c.h.stats.MessagesFailed++
		}
		if onFailed != nil {
			c.h.eng.Schedule(0, onFailed)
		}
		// The fragment never entered backlog or inflight; nothing else
		// references it.
		packet.Put(pkt)
		return
	}
	pkt.Seq = c.nextSeq
	pkt.Incarnation = c.incarnation
	c.nextSeq++
	st := c.win.push()
	st.onAcked, st.onFailed = onAcked, onFailed
	c.backlog.Push(pkt)
	c.pump()
}

// pump moves backlog packets into the window.
func (c *conn) pump() {
	for c.backlog.Len() > 0 && (len(c.inflight) < c.h.par.Window || c.h.par.DisableAcks) {
		pkt := c.backlog.Pop()
		if !c.h.par.DisableAcks {
			c.inflight = append(c.inflight, pkt)
			c.transmit(pkt)
			continue
		}
		// Fire-and-forget mode: no retransmission will ever need the
		// original, and transmit clones the wire copy synchronously, so
		// the original goes straight back to the pool. Keeping it
		// (pre-fix behaviour) leaked one pool packet per send — in a
		// long open-loop run, unbounded growth.
		c.transmit(pkt)
		packet.Put(pkt)
	}
}

// transmit hands one packet to the MCP. The MCP keeps its own queue,
// so this never blocks.
func (c *conn) transmit(pkt *packet.Packet) {
	c.h.stats.PacketsSent++
	c.win.at(pkt.Seq).submitted = true
	// The MCP consumes the route bytes in flight, so each (re)send
	// works on a fresh copy; the original stays pristine for
	// retransmission. The copy comes from (and returns to) the packet
	// pool: the receiving host's deliver path recycles it.
	c.h.m.SubmitSend(pkt.ClonePooled(), c.fnSent)
	c.armTimer()
}

// sent runs when a wire copy's tail has left the NIC: its seq may be
// re-sent again. A copy submitted before a resurrection carries a seq
// of the old stream; like any seq, it clears whatever entry the
// restarted stream has under that number (at worst one premature
// retransmission, which the receiver's duplicate handling absorbs).
func (c *conn) sent(wire *packet.Packet, _ units.Time) {
	seq := wire.Seq
	if st := c.win.at(seq); st != nil {
		st.submitted = false
	}
	if c.h.par.DisableAcks {
		// No ack will come; the tail leaving stands in for it.
		c.fireAcked(seq)
		c.win.dropSent()
	}
}

// fireAcked runs and clears the acknowledgement callback of one seq.
func (c *conn) fireAcked(seq uint32) {
	st := c.win.at(seq)
	if st == nil {
		return
	}
	st.onFailed = nil
	if cb := st.onAcked; cb != nil {
		st.onAcked = nil
		cb()
	}
}

func (c *conn) armTimer() {
	if c.h.par.DisableAcks || c.timer.Valid() || c.dead {
		return
	}
	if c.curTimeout <= 0 {
		c.curTimeout = c.h.par.AckTimeout
	}
	if c.curTimeout == c.h.par.AckTimeout {
		// The common case: every conn of the host arms this one delay,
		// so the timer goes on the engine's fixed-delay FIFO instead of
		// the heap. Backed-off timeouts use the heap.
		c.timer = c.h.ackTimeouts().Schedule(c.fnTimeout)
		return
	}
	c.timer = c.h.eng.Schedule(c.curTimeout, c.fnTimeout)
}

func (c *conn) disarmTimer() {
	if c.timer.Valid() {
		c.h.eng.Cancel(c.timer)
		c.timer = sim.NoEvent
	}
}

// timeout retransmits every unacknowledged packet (go-back-N). Each
// barren timeout is a strike against the peer and backs the timeout
// off; enough strikes (Params.DeadPeerTimeouts) and the peer is
// declared dead, which is what bounds the retransmission process — and
// hence the simulation — under a permanent fault.
func (c *conn) timeout() {
	c.timer = sim.NoEvent
	if len(c.inflight) == 0 {
		return
	}
	c.strikes++
	if n := c.h.par.DeadPeerTimeouts; n > 0 && c.strikes >= n {
		c.declareDead()
		return
	}
	if f := c.h.par.BackoffFactor; f > 1 {
		c.h.stats.BackoffExpansions++
		c.curTimeout = units.Time(float64(c.curTimeout) * f)
		if lim := c.h.par.MaxAckTimeout; lim > 0 && c.curTimeout > lim {
			c.curTimeout = lim
		}
	}
	// Head-of-line probe: resend only the first unacknowledged packet.
	// Re-bursting the whole window on timeout can phase-lock against a
	// one-buffer receiver — every burst arrives while the buffer holds
	// the previous burst's survivor, so the head is never the packet
	// that lands, the receiver keeps re-acking the same position, and
	// the exchange livelocks (the simulation replays the lock exactly,
	// having no physical jitter to break it). A lone probe claims the
	// buffer, advances the window, and the rest of the window resumes
	// on the ack (handleAck).
	for _, pkt := range c.inflight {
		if c.win.submitted(pkt.Seq) {
			// Still sitting in the NIC's send queue; re-sending would
			// duplicate it.
			break
		}
		c.retransmit(pkt)
		break
	}
	c.armTimer()
}

// retransmit re-sends one unacknowledged packet.
func (c *conn) retransmit(pkt *packet.Packet) {
	c.h.stats.Retransmits++
	if c.h.tracer != nil {
		c.h.emit(trace.Retransmit, pkt.ID, fmt.Sprintf("seq=%d", pkt.Seq))
	}
	c.transmit(pkt)
}

// declareDead issues the dead-peer verdict: every pending message is
// reported failed (in send order), all timers stop, and the conn
// rejects future sends. The per-host OnPeerDead hook lets the layer
// above (the fault-campaign controller, or a future remapper trigger)
// react.
func (c *conn) declareDead() {
	c.dead = true
	c.disarmTimer()
	c.h.stats.PeersDeclaredDead++
	c.h.emit(trace.PeerDead, 0, fmt.Sprintf("peer=%d strikes=%d", c.peer, c.strikes))
	// Count abandoned messages: one per last-fragment still unacked
	// (its ack is what would have completed the message).
	for _, pkt := range c.inflight {
		if pkt.LastFrag {
			c.h.stats.MessagesFailed++
		}
	}
	for i := 0; i < c.backlog.Len(); i++ {
		if c.backlog.At(i).LastFrag {
			c.h.stats.MessagesFailed++
		}
	}
	// Fire failure callbacks in ascending-seq (send) order so the
	// outcome order is deterministic.
	for seq := c.ackedTo; seq < c.nextSeq; seq++ {
		if st := c.win.at(seq); st != nil && st.onFailed != nil {
			cb := st.onFailed
			st.onFailed, st.onAcked = nil, nil
			cb()
		}
	}
	// The abandoned originals have no live referent left (only their
	// clones were ever injected): recycle them.
	for _, pkt := range c.inflight {
		packet.Put(pkt)
	}
	for i := 0; i < c.backlog.Len(); i++ {
		packet.Put(c.backlog.At(i))
	}
	c.inflight = nil
	c.backlog.Clear()
	if c.h.OnPeerDead != nil {
		c.h.OnPeerDead(c.peer, c.h.eng.Now())
	}
}

// resurrect lifts the dead-peer verdict after an epoch-versioned
// table install restored a route to the peer. The go-back-N stream
// restarts from sequence zero under the new incarnation; the receiver
// adopts it when the first sequence-zero packet arrives (handleData).
// declareDead already drained inflight/backlog and reported every
// pending outcome, so only the sequence state needs resetting. A wire
// clone of the old incarnation may still sit in the NIC's send queue;
// its tail-out clears the submitted flag of a reused seq (see sent).
func (c *conn) resurrect(epoch uint32) {
	c.dead = false
	c.incarnation = epoch
	c.nextSeq = 0
	c.ackedTo = 0
	c.strikes = 0
	c.curTimeout = 0
	c.win.reset()
	c.h.stats.ConnsResurrected++
	c.h.emit(trace.PeerResurrected, 0, fmt.Sprintf("peer=%d epoch=%d", c.peer, epoch))
}

// restampRoutes rewrites the stamped route bytes (and epoch) of every
// pending packet after a table install, so retransmissions follow the
// new table instead of probing a dead path forever.
func (c *conn) restampRoutes(hdr []byte, typ packet.Type, epoch uint32) {
	restamp := func(pkt *packet.Packet) {
		pkt.Route = append(pkt.Route[:0], hdr...)
		pkt.Type = typ
		pkt.Epoch = epoch
		c.h.stats.PacketsRerouted++
	}
	for _, pkt := range c.inflight {
		restamp(pkt)
	}
	for i := 0; i < c.backlog.Len(); i++ {
		restamp(c.backlog.At(i))
	}
}

// handleAck processes a cumulative acknowledgement: everything below
// nextExpected has arrived. epoch is the incarnation the ack was
// issued under; acknowledgements from before a resurrection must not
// be applied to the restarted stream.
func (c *conn) handleAck(nextExpected uint32, epoch uint32) {
	if c.dead {
		return // verdict issued; outcomes already reported
	}
	if epoch < c.incarnation {
		c.h.stats.EpochStaleDrops++
		return // ack from a previous incarnation of this stream
	}
	if nextExpected <= c.ackedTo {
		return // stale
	}
	old := c.ackedTo
	c.ackedTo = nextExpected
	// Acknowledgement progress clears the strike count and resets the
	// backed-off timeout. Progress after a timeout means the receiver
	// dropped the rest of the window: resume streaming it below.
	recovering := c.strikes > 0
	c.strikes = 0
	c.curTimeout = c.h.par.AckTimeout
	keep := c.inflight[:0]
	for _, pkt := range c.inflight {
		if pkt.Seq >= nextExpected {
			keep = append(keep, pkt)
		} else {
			// Acknowledged: the original (never injected itself — every
			// transmission was a clone) has no other referent left.
			packet.Put(pkt)
		}
	}
	c.inflight = keep
	clear(c.inflight[len(c.inflight):cap(c.inflight)])
	for seq := old; seq < nextExpected; seq++ {
		c.fireAcked(seq)
	}
	c.win.dropBelow(c.ackedTo)
	c.disarmTimer()
	if recovering {
		// Go-back-N resume: re-stream the unacknowledged remainder of
		// the window from the position the receiver just confirmed.
		for _, pkt := range c.inflight {
			if c.win.submitted(pkt.Seq) {
				continue
			}
			c.retransmit(pkt)
		}
	}
	if len(c.inflight) > 0 {
		c.armTimer()
	}
	c.pump()
}

// handleData processes an arriving data packet.
func (c *conn) handleData(pkt *packet.Packet, t units.Time) {
	if c.h.par.DisableAcks {
		// Raw mode: deliver whatever arrives, reassembling naively.
		c.deliverFrag(pkt, t)
		return
	}
	switch {
	case pkt.Incarnation > c.peerIncarnation:
		// The peer's sender restarted its stream under a newer
		// incarnation: adopt it. Any half-assembled message of the old
		// incarnation is abandoned (its sender already reported it
		// failed at the dead verdict). The session number — not the
		// table epoch — is what distinguishes a new stream: epochs
		// advance under live connections whose in-flight packets get
		// re-stamped, and treating those as new streams would reset
		// expected and re-deliver.
		c.peerIncarnation = pkt.Incarnation
		c.expected = 0
		c.assembly = nil
		c.pendingAcks = 0
		if c.ackTimer.Valid() {
			c.h.eng.Cancel(c.ackTimer)
			c.ackTimer = sim.NoEvent
		}
	case pkt.Incarnation < c.peerIncarnation:
		// A leftover of the previous incarnation (stale route SRAM or
		// a clone that sat in a queue across the resurrection).
		c.h.stats.EpochStaleDrops++
		return
	}
	switch {
	case pkt.Seq == c.expected:
		c.expected++
		c.deliverFrag(pkt, t)
		c.scheduleAck()
	case pkt.Seq < c.expected:
		// Duplicate (a retransmission raced the ack): re-ack at once.
		c.h.stats.DuplicateDrops++
		c.flushAck()
	default:
		// Gap: an earlier packet was flushed by a buffer pool.
		// Go-back-N discards and re-acks the last good position
		// immediately, so the sender rewinds without a full timeout.
		c.h.stats.OutOfOrderDrops++
		c.flushAck()
	}
}

// scheduleAck acknowledges the in-order progress: immediately by
// default, or coalesced under Params.AckDelay (one cumulative ack per
// AckEvery packets or per delay window, whichever first).
func (c *conn) scheduleAck() {
	if c.h.par.AckDelay <= 0 {
		c.h.sendAck(c.peer, c.expected)
		return
	}
	c.pendingAcks++
	every := c.h.par.AckEvery
	if every <= 0 {
		every = 4
	}
	if c.pendingAcks >= every {
		c.flushAck()
		return
	}
	if !c.ackTimer.Valid() {
		c.ackTimer = c.h.eng.Schedule(c.h.par.AckDelay, c.fnAckDelay)
	}
}

// ackDelayExpired flushes the coalesced ack when its delay runs out.
func (c *conn) ackDelayExpired() {
	c.ackTimer = sim.NoEvent
	c.flushAck()
}

// flushAck emits the cumulative acknowledgement now.
func (c *conn) flushAck() {
	if c.ackTimer.Valid() {
		c.h.eng.Cancel(c.ackTimer)
		c.ackTimer = sim.NoEvent
	}
	c.pendingAcks = 0
	c.h.sendAck(c.peer, c.expected)
}

// deliverFrag appends a fragment and completes the message on its
// last fragment, dispatching to the destination port (or the legacy
// OnMessage callback when nobody opened that port).
func (c *conn) deliverFrag(pkt *packet.Packet, t units.Time) {
	c.assembly = append(c.assembly, pkt.Payload...)
	if !pkt.LastFrag {
		return
	}
	c.h.stats.MessagesReceived++
	// The application sees the message after the host-side receive
	// overhead.
	in := c.h.inMsgs.Get()
	in.c, in.srcPort, in.dstPort, in.payload = c, pkt.SrcPort, pkt.DstPort, c.assembly
	c.assembly = nil
	c.h.eng.ScheduleArg(c.h.par.HostRecvOverhead, c.h.fnHandOff, in)
}

// seqState is the sender's bookkeeping for one sequence number.
type seqState struct {
	// submitted marks a seq whose wire copy sits in the MCP and has
	// not left the NIC yet: re-sending it would duplicate it.
	submitted bool
	onAcked   func() // acknowledgement callback (send tokens)
	onFailed  func() // failure callback (dead-peer verdict)
}

// seqWindow holds the seqState of the seqs [base, base+n) in a ring
// indexed by seq. The sender appends one state per enqueued packet
// (base+n is always the conn's nextSeq) and drops them from the front
// once no later event reads them; a resurrection resets it to seq 0.
type seqWindow struct {
	buf  []seqState // length zero or a power of two
	base uint32
	n    int
}

// at returns the state of seq, or nil if seq is outside the window.
func (w *seqWindow) at(seq uint32) *seqState {
	if seq-w.base >= uint32(w.n) {
		return nil
	}
	return &w.buf[seq&uint32(len(w.buf)-1)]
}

// submitted reports whether seq's wire copy has not yet left the NIC.
func (w *seqWindow) submitted(seq uint32) bool {
	st := w.at(seq)
	return st != nil && st.submitted
}

// push appends a zero state for seq base+n and returns it.
func (w *seqWindow) push() *seqState {
	if w.n == len(w.buf) {
		w.grow()
	}
	w.n++
	st := &w.buf[(w.base+uint32(w.n-1))&uint32(len(w.buf)-1)]
	*st = seqState{}
	return st
}

func (w *seqWindow) grow() {
	next := make([]seqState, max(2*len(w.buf), 16))
	for i := 0; i < w.n; i++ {
		seq := w.base + uint32(i)
		next[seq&uint32(len(next)-1)] = w.buf[seq&uint32(len(w.buf)-1)]
	}
	w.buf = next
}

// pop drops the state at the front.
func (w *seqWindow) pop() {
	w.buf[w.base&uint32(len(w.buf)-1)] = seqState{}
	w.base++
	w.n--
}

// dropBelow drops the states of every seq below seq: acknowledged
// seqs, which nothing reads again.
func (w *seqWindow) dropBelow(seq uint32) {
	for w.n > 0 && w.base < seq {
		w.pop()
	}
}

// dropSent drops leading states that hold nothing: with acks disabled
// every seq is submitted when it is enqueued, so an empty state is one
// whose tail has left and whose callback has run.
func (w *seqWindow) dropSent() {
	for w.n > 0 {
		st := &w.buf[w.base&uint32(len(w.buf)-1)]
		if st.submitted || st.onAcked != nil || st.onFailed != nil {
			return
		}
		w.pop()
	}
}

// reset empties the window and restarts it at seq 0.
func (w *seqWindow) reset() {
	clear(w.buf)
	w.base, w.n = 0, 0
}
