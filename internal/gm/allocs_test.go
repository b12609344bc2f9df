package gm

import (
	"testing"

	"repro/internal/mcp"
	"repro/internal/topology"
	"repro/internal/units"
)

// A warmed GM send→ack cycle — Port.Send, segmentation, the retransmit
// timer armed and cancelled, SDMA/wire/RDMA on both NICs, the ack,
// the send token's return and OnReceive — allocates nothing except the
// message copy deliverFrag hands the application: zero for an empty
// message, one for a single-packet one.
func TestSendAckCycleSteadyStateAllocatesOnlyTheCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops packets at random under the race detector")
	}
	for _, tc := range []struct {
		size int
		want float64
	}{{0, 0}, {256, 1}} {
		for _, v := range []mcp.Variant{mcp.Original, mcp.ITB} {
			r := newRig(t, mcp.DefaultConfig(v), DefaultParams())
			h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
			p1, err := h1.OpenPort(2, 1)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := h2.OpenPort(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			received := 0
			p2.OnReceive = func(topology.NodeID, uint8, []byte, units.Time) {
				received++
				p2.ProvideReceiveTokens(1)
			}
			p2.ProvideReceiveTokens(1)
			payload := make([]byte, tc.size)
			cycle := func() {
				if err := p1.Send(h2.Node(), 3, payload); err != nil {
					t.Fatal(err)
				}
				r.eng.Run()
			}
			for i := 0; i < 16; i++ {
				cycle()
			}
			before := received
			if allocs := testing.AllocsPerRun(200, cycle); allocs != tc.want {
				t.Errorf("%v, %d B: send→ack cycle allocates %.1f/op in steady state, want %.0f (the message copy)",
					v, tc.size, allocs, tc.want)
			}
			if received-before != 201 || p1.FreeSendTokens() != 1 {
				t.Fatalf("%v: received %d, %d send tokens free after the pin run", v, received-before, p1.FreeSendTokens())
			}
			if s := h1.Stats(); s.Retransmits != 0 {
				t.Fatalf("%v: %d retransmits in a loss-free cycle", v, s.Retransmits)
			}
		}
	}
}
