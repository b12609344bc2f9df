package mcp

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/units"
)

// checkDrained fails if any MCP of the rig still has a pooled record
// or a host DMA operation checked out.
func (r *rig) checkDrained(t *testing.T) {
	t.Helper()
	for h, m := range r.mcps {
		jobs, recs := m.Outstanding()
		if jobs != 0 || recs != 0 || m.NIC().HostDMAOutstanding() != 0 {
			t.Errorf("host %d: %d send jobs, %d receive records, %d DMA records in motion after drain",
				h, jobs, recs, m.NIC().HostDMAOutstanding())
		}
	}
}

// A warmed MCP send+receive round trip — SDMA, send set-up, wire,
// receive completion (with the Early Recv check on the ITB firmware),
// RDMA and delivery on both hosts — must not allocate: every handler
// is a method value bound in New, and the per-packet state rides in
// pooled records or in the packet itself.
func TestRoundTripSteadyStateDoesNotAllocate(t *testing.T) {
	for _, v := range []Variant{Original, ITB} {
		t.Run(v.String(), func(t *testing.T) {
			r := newRig(t, v)
			h1, h2 := r.nodes.Host1, r.nodes.Host2
			ping := r.udPacket(t, h1, h2, 256)
			pong := r.udPacket(t, h2, h1, 256)
			// The fabric only advances the route slice, so resetting it
			// onto the retained array restores the route.
			pingRoute, pongRoute := ping.Route, pong.Route
			sent, delivered := 0, 0
			onSent := func(*packet.Packet, units.Time) { sent++ }
			r.mcps[h2].OnDeliver = func(*packet.Packet, units.Time) {
				delivered++
				pong.Route = pongRoute
				r.mcps[h2].SubmitSend(pong, onSent)
			}
			r.mcps[h1].OnDeliver = func(*packet.Packet, units.Time) { delivered++ }
			round := func() {
				ping.Route = pingRoute
				r.mcps[h1].SubmitSend(ping, onSent)
				r.eng.Run()
			}
			for i := 0; i < 16; i++ {
				round()
			}
			before := delivered
			if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
				t.Errorf("round trip allocates %.1f/op in steady state, want 0", allocs)
			}
			if delivered-before != 2*201 || sent != delivered {
				t.Fatalf("delivered %d, sent %d during the pin run", delivered-before, sent)
			}
			r.checkDrained(t)
		})
	}
}

// Forwarding a packet through an in-transit host — Early Recv, ITB
// detection, re-injection from the receive buffer, buffer release —
// must not allocate either.
func TestITBForwardSteadyStateDoesNotAllocate(t *testing.T) {
	r := newRig(t, ITB)
	pkt := r.itbPacket(t, 512)
	route := pkt.Route
	delivered := 0
	r.mcps[r.nodes.Host2].OnDeliver = func(*packet.Packet, units.Time) { delivered++ }
	round := func() {
		pkt.Route = route
		r.mcps[r.nodes.Host1].SubmitSend(pkt, nil)
		r.eng.Run()
	}
	for i := 0; i < 16; i++ {
		round()
	}
	before := delivered
	forwarded := r.mcps[r.nodes.InTransit].Stats().ITBForwarded
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("ITB forward allocates %.1f/op in steady state, want 0", allocs)
	}
	if delivered-before != 201 || r.mcps[r.nodes.InTransit].Stats().ITBForwarded-forwarded != 201 {
		t.Fatalf("delivered %d, forwarded %d during the pin run", delivered-before,
			r.mcps[r.nodes.InTransit].Stats().ITBForwarded-forwarded)
	}
	r.checkDrained(t)
}
