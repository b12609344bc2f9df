package routing

import (
	"fmt"

	"repro/internal/topology"
)

// engineGraph is the struct-of-arrays switch-level view of a topology
// that the routing engines' bulk searches run on. The per-pair
// searches of the original mapper allocate map-keyed frontiers per
// call, which is fine at paper scale (tens of switches) but dominates
// table-build time at thousands of hosts; the engines instead run one
// search per *source* over int-indexed state arrays and reconstruct
// every destination's path from the shared parent tree.
//
// States are (switch, up*/down* phase) pairs encoded as
// switchIndex*2+phase, with phase 0 = "no down hop taken yet" and
// phase 1 = "downed" (only further down hops are legal).
type engineGraph struct {
	t   *topology.Topology
	ud  *topology.UpDown
	sws []topology.NodeID // switch index -> node id
	// sidx maps node id -> switch index (-1 for hosts).
	sidx []int32
	// CSR adjacency over non-loopback switch-switch links, per switch
	// in the deterministic (far node id, link id) order of
	// Topology.SwitchNeighbors.
	eOff  []int32
	eTo   []int32 // neighbour switch index
	eLink []int32 // link id
	ePort []uint8 // output port at the from-switch
	eDown []bool  // true when the traversal is a down hop under ud
	// hostPorts[si] lists the switch's host-facing ports in port order
	// (loopback-free by construction: hosts have one port).
	hostPorts [][]uint8
}

func newEngineGraph(t *topology.Topology, ud *topology.UpDown) (*engineGraph, error) {
	g := &engineGraph{t: t, ud: ud}
	g.sidx = make([]int32, t.NumNodes())
	for i := range g.sidx {
		g.sidx[i] = -1
	}
	for _, sw := range t.Switches() {
		g.sidx[sw] = int32(len(g.sws))
		g.sws = append(g.sws, sw)
	}
	g.eOff = make([]int32, len(g.sws)+1)
	g.hostPorts = make([][]uint8, len(g.sws))
	for si, sw := range g.sws {
		g.eOff[si] = int32(len(g.eTo))
		for _, nb := range t.SwitchNeighbors(sw) {
			port := nb.Link.PortAt(sw)
			if port > int(maxCompactPort) {
				return nil, fmt.Errorf("routing: switch %d port %d exceeds the compact route encoding's %d-port limit", sw, port, maxCompactPort)
			}
			g.eTo = append(g.eTo, g.sidx[nb.Node])
			g.eLink = append(g.eLink, int32(nb.Link.ID))
			g.ePort = append(g.ePort, uint8(port))
			g.eDown = append(g.eDown, ud.DirectionOf(nb.Link, sw) == topology.Down)
		}
		for _, nb := range t.Neighbors(sw) {
			if t.Node(nb.Node).Kind != topology.KindHost {
				continue
			}
			if nb.Port > int(maxCompactPort) {
				return nil, fmt.Errorf("routing: switch %d port %d exceeds the compact route encoding's %d-port limit", sw, nb.Port, maxCompactPort)
			}
			g.hostPorts[si] = append(g.hostPorts[si], uint8(nb.Port))
		}
	}
	g.eOff[len(g.sws)] = int32(len(g.eTo))
	return g, nil
}

// liveHostPorts returns, per switch index, the host-facing ports whose
// hosts survive the exclusion set — the candidates for in-transit
// ejection. With a nil avoid it is hostPorts itself.
func (g *engineGraph) liveHostPorts(avoid *Avoid) [][]uint8 {
	if avoid == nil {
		return g.hostPorts
	}
	out := make([][]uint8, len(g.sws))
	for si, ports := range g.hostPorts {
		sw := g.sws[si]
		for _, p := range ports {
			h := g.t.LinkAt(sw, int(p)).Other(sw)
			if !avoid.hostDead(g.t, h) {
				out[si] = append(out[si], p)
			}
		}
	}
	return out
}

// searchTree holds one source's search result: per state, the best
// distance and the parent pointers to reconstruct paths. parentEdge is
// the CSR edge index taken into the state, edgeReset for the zero-hop
// in-transit reset (phase 1 -> phase 0 at the same switch), or
// edgeNone for unreached states and the start.
type searchTree struct {
	dist        []int64
	parentEdge  []int32
	parentState []int32
}

const (
	edgeNone  int32 = -1
	edgeReset int32 = -2
)

const distUnreached = int64(1) << 62

func newSearchTree(states int) *searchTree {
	st := &searchTree{
		dist:        make([]int64, states),
		parentEdge:  make([]int32, states),
		parentState: make([]int32, states),
	}
	st.reset()
	return st
}

func (st *searchTree) reset() {
	for i := range st.dist {
		st.dist[i] = distUnreached
		st.parentEdge[i] = edgeNone
		st.parentState[i] = edgeNone
	}
}

// legalBFS computes shortest up*/down*-legal paths from source switch
// src to every state. rot rotates the adjacency iteration order, which
// changes only the tie-break among equal-length paths: rotating it per
// layer is how the layered engine derives link-disjoint-ish path
// diversity from one deterministic search. avoid excludes failed
// links.
func (g *engineGraph) legalBFS(src int32, rot int, avoid *Avoid, st *searchTree, queue []int32) {
	st.reset()
	start := src * 2 // phase 0
	st.dist[start] = 0
	queue = append(queue[:0], start)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		si, ph := cur/2, cur%2
		deg := int(g.eOff[si+1] - g.eOff[si])
		for i := 0; i < deg; i++ {
			e := int(g.eOff[si]) + (i+rot)%deg
			if !g.eDown[e] && ph == 1 {
				continue // up after down is illegal
			}
			if avoid.avoidsLink(int(g.eLink[e])) {
				continue
			}
			next := g.eTo[int(e)] * 2
			if g.eDown[e] {
				next++
			}
			if st.dist[next] != distUnreached {
				continue
			}
			st.dist[next] = st.dist[cur] + 1
			st.parentEdge[next] = int32(e)
			st.parentState[next] = cur
			queue = append(queue, next)
		}
	}
}

// plainBFS computes unrestricted shortest distances (minimal hops,
// ignoring the orientation) from src to every switch. Used for
// minimality statistics and reachability checks; dist is indexed by
// switch index, not state.
func (g *engineGraph) plainBFS(src int32, avoid *Avoid, dist []int32, queue []int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for len(queue) > 0 {
		si := queue[0]
		queue = queue[1:]
		for e := g.eOff[si]; e < g.eOff[si+1]; e++ {
			if avoid.avoidsLink(int(g.eLink[e])) {
				continue
			}
			to := g.eTo[e]
			if dist[to] >= 0 {
				continue
			}
			dist[to] = dist[si] + 1
			queue = append(queue, to)
		}
	}
}

// itbHeapEntry is one entry of the slice-backed binary min-heap of
// (cost, state) pairs the in-transit Dijkstras share. heapPush and
// heapPop sift exactly as container/heap does, so equal-cost entries
// pop in container/heap's order. Allocation-free across sources when
// the backing slice is reused.
type itbHeapEntry struct {
	cost  int64
	state int32
}

func heapPush(h []itbHeapEntry, e itbHeapEntry) []itbHeapEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].cost <= h[i].cost {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []itbHeapEntry) (itbHeapEntry, []itbHeapEntry) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].cost < h[small].cost {
			small = l
		}
		if r < len(h) && h[r].cost < h[small].cost {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}

// itbSearch runs the in-transit Dijkstra from source switch src over
// the layered state graph: hop edges cost hopCost(1,0), the zero-hop
// reset edge (phase 1 -> 0, available where canReset) costs
// hopCost(0,1), so the lexicographic (hops, ITBs) minimum is found for
// every destination.
func (g *engineGraph) itbSearch(src int32, avoid *Avoid, canReset []bool, st *searchTree, heap []itbHeapEntry) {
	st.reset()
	start := src * 2
	st.dist[start] = 0
	heap = heap[:0]
	heap = heapPush(heap, itbHeapEntry{0, start})
	for len(heap) > 0 {
		var top itbHeapEntry
		top, heap = heapPop(heap)
		if top.cost > st.dist[top.state] {
			continue // stale entry
		}
		cur := top.state
		si, ph := cur/2, cur%2
		base := st.dist[cur]
		if ph == 1 && canReset[si] {
			next := cur - 1 // phase 0 at the same switch
			if c := base + hopCost(0, 1); c < st.dist[next] {
				st.dist[next] = c
				st.parentEdge[next] = edgeReset
				st.parentState[next] = cur
				heap = heapPush(heap, itbHeapEntry{c, next})
			}
		}
		for e := g.eOff[si]; e < g.eOff[si+1]; e++ {
			if !g.eDown[e] && ph == 1 {
				continue
			}
			if avoid.avoidsLink(int(g.eLink[e])) {
				continue
			}
			next := g.eTo[e] * 2
			if g.eDown[e] {
				next++
			}
			if c := base + hopCost(1, 0); c < st.dist[next] {
				st.dist[next] = c
				st.parentEdge[next] = int32(e)
				st.parentState[next] = cur
				heap = heapPush(heap, itbHeapEntry{c, next})
			}
		}
	}
}

// bestState returns the reached goal state for destination switch di
// (either phase is acceptable; ties prefer phase 0 for determinism),
// or -1 when the destination is unreachable.
func (st *searchTree) bestState(di int32) int32 {
	s0, s1 := di*2, di*2+1
	d0, d1 := st.dist[s0], st.dist[s1]
	if d0 == distUnreached && d1 == distUnreached {
		return -1
	}
	if d0 <= d1 {
		return s0
	}
	return s1
}

// appendPath appends the compact encoding of the path from the search
// tree's source to goal onto buf: one output-port byte per hop, with
// stepITB+ejection-port pairs at in-transit resets. ejectPorts selects
// the ejection port per reset switch; pairRot rotates the choice so
// the in-transit load spreads deterministically over a switch's hosts.
// scratch is a reusable reversed-entry buffer.
func (g *engineGraph) appendPath(buf []byte, st *searchTree, goal int32, ejectPorts [][]uint8, pairRot int, scratch []int32) ([]byte, []int32, error) {
	scratch = scratch[:0]
	for cur := goal; st.parentEdge[cur] != edgeNone; cur = st.parentState[cur] {
		e := st.parentEdge[cur]
		if e == edgeReset {
			// Record the reset switch as -(si+1).
			scratch = append(scratch, -(cur/2 + 1))
		} else {
			scratch = append(scratch, e)
		}
	}
	for i := len(scratch) - 1; i >= 0; i-- {
		entry := scratch[i]
		if entry >= 0 {
			buf = append(buf, g.ePort[entry])
			continue
		}
		si := -entry - 1
		ports := ejectPorts[si]
		if len(ports) == 0 {
			return buf, scratch, fmt.Errorf("routing: in-transit reset at switch %d which has no live hosts", g.sws[si])
		}
		buf = append(buf, stepITB, ports[pairRot%len(ports)])
	}
	return buf, scratch, nil
}

// traversalsTo reconstructs the path to goal as the (Traversal,
// itbBefore) pair the Table assembler consumes — the small-scale form
// of appendPath used by the engines' Table builds.
func (g *engineGraph) traversalsTo(st *searchTree, goal int32) ([]Traversal, []int) {
	var rev []int32
	for cur := goal; st.parentEdge[cur] != edgeNone; cur = st.parentState[cur] {
		rev = append(rev, st.parentEdge[cur])
	}
	var trav []Traversal
	var itbBefore []int
	for i := len(rev) - 1; i >= 0; i-- {
		e := rev[i]
		if e == edgeReset {
			itbBefore = append(itbBefore, len(trav))
			continue
		}
		// The from-switch of edge e is recoverable from the CSR bucket
		// it lives in; recompute via binary search over eOff.
		from := g.edgeFrom(e)
		trav = append(trav, Traversal{Link: g.t.Link(int(g.eLink[e])), From: g.sws[from]})
	}
	return trav, itbBefore
}

// edgeFrom returns the switch index owning CSR edge e.
func (g *engineGraph) edgeFrom(e int32) int32 {
	lo, hi := int32(0), int32(len(g.sws))
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if g.eOff[mid] <= e {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
