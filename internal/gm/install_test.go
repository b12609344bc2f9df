package gm

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// installRig is a GM host on every host of a generated 8-switch
// topology, all sharing one eager ITB table.
type installRig struct {
	eng   *sim.Engine
	topo  *topology.Topology
	ud    *topology.UpDown
	hosts []*Host
}

func newInstallRig(t *testing.T, seed int64) *installRig {
	t.Helper()
	topo, err := topology.Generate(topology.DefaultGenConfig(8, seed))
	if err != nil {
		t.Fatal(err)
	}
	ud := topology.BuildUpDown(topo)
	tbl, err := routing.BuildTable(topo, ud, routing.ITBRouting)
	if err != nil {
		t.Fatal(err)
	}
	r := &installRig{eng: sim.NewEngine(), topo: topo, ud: ud}
	net := fabric.New(r.eng, topo, fabric.DefaultParams())
	for _, h := range topo.Hosts() {
		r.hosts = append(r.hosts, NewHost(r.eng, mcp.New(net, h, mcp.DefaultConfig(mcp.ITB)), tbl, DefaultParams()))
	}
	return r
}

// TestInstallSkipsConnsOpenedDuringWalk pins InstallTable's walk: it
// reconciles only the conns open when it starts. A failure callback
// fired by the dead verdict of a lower peer opens conns to higher
// peers inside the walk; the install must neither resurrect nor
// restamp them. The next install reconciles them as usual.
func TestInstallSkipsConnsOpenedDuringWalk(t *testing.T) {
	r := newInstallRig(t, 1)
	h := r.hosts[0]
	a, b, c, d := r.hosts[1].Node(), r.hosts[2].Node(), r.hosts[3].Node(), r.hosts[4].Node()
	// A conn to the highest peer already spans the slots the callback
	// fills, so they fall inside the walk's range.
	h.connTo(d)

	var late *packet.Packet
	failed := false
	onFailed := func() {
		failed = true
		h.connTo(b).dead = true // a visit would resurrect it
		late = packet.Get()
		h.connTo(c).backlog.Push(late) // a visit would restamp it
	}
	if err := h.SendTracked(a, pattern(64), nil, onFailed); err != nil {
		t.Fatal(err)
	}
	// Long enough to hand the packet to the NIC, too short for its ack.
	r.eng.RunFor(h.par.HostSendOverhead + units.Microsecond)
	if ca := h.peerConn(a); len(ca.inflight)+ca.backlog.Len() == 0 {
		t.Fatal("no traffic pending to the peer about to become unreachable")
	}

	cut, err := routing.BuildTableAvoiding(r.topo, r.ud, routing.ITBRouting, (&routing.Avoid{}).AddHost(a))
	if err != nil {
		t.Fatal(err)
	}
	h.InstallTable(cut, 1)
	if !failed || !h.PeerDead(a) {
		t.Fatal("the install did not fail the traffic to the unreachable peer")
	}
	if !h.PeerDead(b) {
		t.Error("a conn opened during the walk was resurrected by the same install")
	}
	if late.Epoch != 0 || h.stats.PacketsRerouted != 0 {
		t.Errorf("a conn opened during the walk was restamped (epoch %d, %d rerouted)", late.Epoch, h.stats.PacketsRerouted)
	}

	h.InstallTable(cut, 2)
	if h.PeerDead(b) || h.stats.ConnsResurrected != 1 {
		t.Errorf("next install: dead=%v, %d resurrected; want the conn resurrected", h.PeerDead(b), h.stats.ConnsResurrected)
	}
	if late.Epoch != 2 || h.stats.PacketsRerouted != 1 {
		t.Errorf("next install: epoch %d, %d rerouted; want the pending packet restamped", late.Epoch, h.stats.PacketsRerouted)
	}
	packet.Put(late)
}

// TestInstallRestampsInPeerOrder checks that InstallTable resolves and
// restamps its conns in ascending peer id. On a lazily rebuilt table
// the resolution order decides the in-transit hosts (the least-loaded
// choice sees the routes resolved before it), so every restamped
// header must match a table resolved in ascending peer order.
func TestInstallRestampsInPeerOrder(t *testing.T) {
	r := newInstallRig(t, 2) // seed 2 routes through in-transit buffers
	lazy := func() *routing.Table {
		return routing.RebuildAvoidingLazy(nil, r.topo, r.ud, routing.ITBRouting, nil, nil)
	}
	// headers resolves src's routes in the given peer order.
	headers := func(src topology.NodeID, peers []topology.NodeID) map[topology.NodeID][]byte {
		tbl := lazy()
		out := map[topology.NodeID][]byte{}
		for _, p := range peers {
			rt, ok := tbl.Lookup(src, p)
			if !ok {
				t.Fatalf("no route %d->%d", src, p)
			}
			hdr, err := rt.EncodeHeader()
			if err != nil {
				t.Fatal(err)
			}
			out[p] = hdr
		}
		return out
	}
	// Pick a source whose headers depend on the resolution order, so
	// the check below can tell the orders apart.
	var h *Host
	var peers []topology.NodeID
	var want map[topology.NodeID][]byte
	for _, cand := range r.hosts {
		peers = peers[:0]
		for _, o := range r.hosts {
			if o != cand {
				peers = append(peers, o.Node())
			}
		}
		asc := headers(cand.Node(), peers)
		rev := make([]topology.NodeID, len(peers))
		for i, p := range peers {
			rev[len(peers)-1-i] = p
		}
		desc := headers(cand.Node(), rev)
		for _, p := range peers {
			if !bytes.Equal(asc[p], desc[p]) {
				h, want = cand, asc
				break
			}
		}
		if h != nil {
			break
		}
	}
	if h == nil {
		t.Fatal("no source on this topology resolves order-dependent routes")
	}

	// Open the conns in descending order with one pending packet each,
	// so neither opening order nor slice growth hides the walk order.
	pending := map[topology.NodeID]*packet.Packet{}
	for i := len(peers) - 1; i >= 0; i-- {
		pkt := packet.Get()
		h.connTo(peers[i]).backlog.Push(pkt)
		pending[peers[i]] = pkt
	}
	h.InstallTable(lazy(), 1)
	for _, p := range peers {
		pkt := pending[p]
		if !bytes.Equal(pkt.Route, want[p]) {
			t.Errorf("peer %d restamped with % x, want % x (ascending peer order)", p, pkt.Route, want[p])
		}
		packet.Put(pkt)
	}
}
