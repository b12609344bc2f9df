package routing

import (
	"fmt"

	"repro/internal/topology"
)

// The route searches run over a layered graph of (switch, phase)
// states encoded as state = 2*node + phase: phase 0 means no down hop
// has been taken yet (up and down are legal), phase 1 means a down hop
// has been taken (only down is legal). Each search starts at one
// source switch and runs over every destination at once, recording
// the parent of each state in flat arrays.

// UpDownSwitchPath computes the shortest up*/down*-legal switch path
// from switch src to switch dst under orientation ud. It returns the
// traversed links in order; an empty slice when src == dst. Up*/down*
// guarantees a legal path exists between every pair in a connected
// network, so failure panics (it would mean a broken orientation).
func UpDownSwitchPath(t *topology.Topology, ud *topology.UpDown, src, dst topology.NodeID) []Traversal {
	trav, err := searchPath(t, ud, src, dst, nil)
	if err != nil {
		panic(err)
	}
	return trav
}

// MinimalSwitchPath computes a shortest switch path ignoring routing
// restrictions (pure BFS). Used as the lower bound the ITB mechanism
// tries to reach, and by tests.
func MinimalSwitchPath(t *topology.Topology, src, dst topology.NodeID) []Traversal {
	trav, err := searchPath(t, nil, src, dst, nil)
	if err != nil {
		panic(err)
	}
	return trav
}

// ITBSwitchPath computes a minimal-hop path from switch src to switch
// dst in which every up*/down* violation is repaired by an in-transit
// buffer at a host-attached switch. Among minimal-hop paths it uses
// the fewest ITBs. The returned itbBefore lists, in order, the indices
// into the traversal before which an ejection/re-injection happens:
// before taking traversal itbBefore[k], the packet resets at the
// switch it is currently on.
func ITBSwitchPath(t *topology.Topology, ud *topology.UpDown, src, dst topology.NodeID) (trav []Traversal, itbBefore []int, err error) {
	if err := checkSwitchPair(t, src, dst); err != nil {
		return nil, nil, err
	}
	var s searchScratch
	trav, itbBefore, ok := s.itbTree(t, ud, src, nil, canResetAt(t, nil)).path(t, dst)
	if !ok {
		return nil, nil, fmt.Errorf("routing: no ITB path from switch %d to %d", src, dst)
	}
	return trav, itbBefore, nil
}

// searchPath returns the shortest path from switch src to switch dst,
// up*/down*-legal under ud (ud == nil ignores the orientation: a plain
// shortest path). avoid (optional) excludes failed links.
func searchPath(t *topology.Topology, ud *topology.UpDown, src, dst topology.NodeID, avoid *Avoid) ([]Traversal, error) {
	if err := checkSwitchPair(t, src, dst); err != nil {
		return nil, err
	}
	var s searchScratch
	trav, _, ok := s.bfsTree(t, ud, src, avoid).path(t, dst)
	if !ok {
		return nil, fmt.Errorf("routing: no path from switch %d to %d", src, dst)
	}
	return trav, nil
}

func checkSwitchPair(t *topology.Topology, src, dst topology.NodeID) error {
	if t.Node(src).Kind != topology.KindSwitch || t.Node(dst).Kind != topology.KindSwitch {
		return fmt.Errorf("routing: path endpoints must be switches")
	}
	return nil
}

// Sentinels of srcTree.link: the start state is entered over no link,
// and an in-transit reset (phase 1 -> phase 0 at the same switch)
// crosses none.
const (
	linkNone  int32 = -1
	linkReset int32 = -2
)

// srcTree is the compact result of one single-source search. goal[n]
// is the state at which switch n was first settled (-1 if never);
// parent and link give, per settled state, the state it was reached
// from and the link taken (or linkReset). Entries of unsettled states
// are never read.
type srcTree struct {
	goal, parent, link []int32
}

func newSrcTree(nodes int, src topology.NodeID) *srcTree {
	buf := make([]int32, 5*nodes)
	tr := &srcTree{goal: buf[:nodes], parent: buf[nodes : 3*nodes], link: buf[3*nodes:]}
	for i := range tr.goal {
		tr.goal[i] = -1
	}
	start := 2 * int32(src)
	tr.goal[src] = start
	tr.link[start] = linkNone
	return tr
}

// path reconstructs the route to switch dst: the traversals in order
// and, for each in-transit reset, the index of the traversal it
// precedes. ok is false when the search never reached dst.
func (tr *srcTree) path(t *topology.Topology, dst topology.NodeID) (trav []Traversal, itbBefore []int, ok bool) {
	goal := tr.goal[dst]
	if goal < 0 {
		return nil, nil, false
	}
	hops, itbs := tr.depth(goal)
	if hops > 0 {
		trav = make([]Traversal, hops)
	}
	if itbs > 0 {
		itbBefore = make([]int, itbs)
	}
	for s := goal; tr.link[s] != linkNone; s = tr.parent[s] {
		if tr.link[s] == linkReset {
			// Walking backwards, the traversals not yet placed are
			// exactly those before this reset.
			itbs--
			itbBefore[itbs] = hops
			continue
		}
		hops--
		trav[hops] = Traversal{Link: t.Link(int(tr.link[s])), From: topology.NodeID(tr.parent[s] / 2)}
	}
	return trav, itbBefore, true
}

// depth counts the link hops and in-transit resets from the source to
// state s.
func (tr *srcTree) depth(s int32) (hops, itbs int) {
	for ; tr.link[s] != linkNone; s = tr.parent[s] {
		if tr.link[s] == linkReset {
			itbs++
		} else {
			hops++
		}
	}
	return hops, itbs
}

// searchScratch is the working state of one search, reused across
// searches.
type searchScratch struct {
	dist  []int64 // per state: best known cost, distUnreached if unseen
	heap  []itbHeapEntry
	queue []int32
}

func (s *searchScratch) prepare(states int) {
	if cap(s.dist) < states {
		s.dist = make([]int64, states)
	}
	s.dist = s.dist[:states]
	for i := range s.dist {
		s.dist[i] = distUnreached
	}
}

// itbTree runs the in-transit Dijkstra from switch src over the layered
// graph plus a zero-hop reset edge (phase 1 -> phase 0) at every switch
// where canReset holds, costing one ITB. The cost is lexicographic
// (hops, ITBs), so each switch's first settled state ends a minimal-hop
// path using the fewest resets. avoid (optional) excludes failed links.
//
// The first settled state of a switch is exactly the answer a
// per-pair search with an early exit at that switch would return: both
// searches perform the same pushes and pops up to that point (heapPush
// and heapPop sift exactly as container/heap does, so ties pop in the
// same order), and every edge costs more than zero, so a settled
// state's parent never changes afterwards.
func (s *searchScratch) itbTree(t *topology.Topology, ud *topology.UpDown, src topology.NodeID, avoid *Avoid, canReset []bool) *srcTree {
	tr := newSrcTree(t.NumNodes(), src)
	s.prepare(2 * t.NumNodes())
	start := tr.goal[src]
	s.dist[start] = 0
	s.heap = append(s.heap[:0], itbHeapEntry{cost: 0, state: start})
	relax := func(next int32, cost int64, from, link int32) {
		if s.dist[next] <= cost {
			return
		}
		s.dist[next] = cost
		tr.parent[next] = from
		tr.link[next] = link
		s.heap = heapPush(s.heap, itbHeapEntry{cost: cost, state: next})
	}
	for len(s.heap) > 0 {
		var top itbHeapEntry
		top, s.heap = heapPop(s.heap)
		st := top.state
		if top.cost > s.dist[st] {
			continue // stale entry of a state settled at a lower cost
		}
		sw := topology.NodeID(st / 2)
		if tr.goal[sw] < 0 {
			tr.goal[sw] = st
		}
		base := s.dist[st]
		downed := st&1 == 1
		if downed && canReset[sw] {
			relax(st-1, base+hopCost(0, 1), st, linkReset)
		}
		for _, nb := range t.SwitchNeighbors(sw) {
			if avoid.HasLink(nb.Link.ID) {
				continue
			}
			next := 2 * int32(nb.Node)
			if ud.DirectionOf(nb.Link, sw) == topology.Down {
				next++
			} else if downed {
				continue // up after down is illegal
			}
			relax(next, base+hopCost(1, 0), st, int32(nb.Link.ID))
		}
	}
	return tr
}

// hopCost packs the lexicographic (hops, ITBs) cost of the ITB search.
func hopCost(hops, itbs int64) int64 { return hops<<20 | itbs }

// bfsTree is a breadth-first search from switch src over the layered
// graph, up*/down*-legal under ud (ud == nil ignores the orientation,
// so every state stays in phase 0). Each switch's first discovered
// state ends a shortest path, the same one a per-pair BFS stopping at
// that switch would return.
func (s *searchScratch) bfsTree(t *topology.Topology, ud *topology.UpDown, src topology.NodeID, avoid *Avoid) *srcTree {
	tr := newSrcTree(t.NumNodes(), src)
	s.prepare(2 * t.NumNodes())
	start := tr.goal[src]
	s.dist[start] = 0
	s.queue = append(s.queue[:0], start)
	for head := 0; head < len(s.queue); head++ {
		st := s.queue[head]
		sw := topology.NodeID(st / 2)
		downed := st&1 == 1
		for _, nb := range t.SwitchNeighbors(sw) {
			if avoid.HasLink(nb.Link.ID) {
				continue
			}
			next := 2*int32(nb.Node) + st&1
			if ud != nil {
				if ud.DirectionOf(nb.Link, sw) == topology.Down {
					next = 2*int32(nb.Node) + 1
				} else if downed {
					continue // up after down is illegal
				}
			}
			if s.dist[next] != distUnreached {
				continue
			}
			s.dist[next] = s.dist[st] + 1
			tr.parent[next] = st
			tr.link[next] = int32(nb.Link.ID)
			if tr.goal[nb.Node] < 0 {
				tr.goal[nb.Node] = next
			}
			s.queue = append(s.queue, next)
		}
	}
	return tr
}

// canResetAt reports, per node, whether it is a switch with a live host
// that can serve as an in-transit buffer under the exclusion set.
func canResetAt(t *topology.Topology, avoid *Avoid) []bool {
	out := make([]bool, t.NumNodes())
	for i := range out {
		sw := topology.NodeID(i)
		out[i] = t.Node(sw).Kind == topology.KindSwitch && hasLiveHost(t, sw, avoid)
	}
	return out
}
