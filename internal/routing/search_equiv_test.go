package routing

import (
	"container/heap"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// This file keeps the mapper's original per-pair searches as oracles:
// one map-keyed BFS or Dijkstra per switch pair, stopping at the
// destination. The production searches run once per source switch to
// exhaustion and must return, for every pair, exactly the path the
// oracle returns.

type oraclePhase int

const (
	oracleUpOK   oraclePhase = iota // no down hop taken yet
	oracleDowned                    // a down hop taken: only down legal
)

type oracleState struct {
	sw topology.NodeID
	ph oraclePhase
}

type oracleStep struct {
	prev oracleState
	link *topology.Link // nil at the source
	itb  bool           // an ITB reset at prev.sw before this hop
}

// oracleSearchPath is the per-pair BFS over (switch, phase) states.
func oracleSearchPath(t *topology.Topology, ud *topology.UpDown, src, dst topology.NodeID, avoid *Avoid) ([]Traversal, error) {
	if t.Node(src).Kind != topology.KindSwitch || t.Node(dst).Kind != topology.KindSwitch {
		return nil, fmt.Errorf("routing: path endpoints must be switches")
	}
	if src == dst {
		return nil, nil
	}
	start := oracleState{sw: src, ph: oracleUpOK}
	parent := map[oracleState]oracleStep{start: {}}
	queue := []oracleState{start}
	var goal *oracleState
	for len(queue) > 0 && goal == nil {
		st := queue[0]
		queue = queue[1:]
		for _, nb := range t.SwitchNeighbors(st.sw) {
			if avoid.HasLink(nb.Link.ID) {
				continue
			}
			next := oracleState{sw: nb.Node, ph: st.ph}
			if ud != nil {
				dir := ud.DirectionOf(nb.Link, st.sw)
				var prev *topology.Direction
				if st.ph == oracleDowned {
					d := topology.Down
					prev = &d
				}
				if !topology.LegalTransition(prev, dir) {
					continue
				}
				if dir == topology.Down {
					next.ph = oracleDowned
				}
			}
			if _, seen := parent[next]; seen {
				continue
			}
			parent[next] = oracleStep{prev: st, link: nb.Link}
			if next.sw == dst {
				g := next
				goal = &g
				break
			}
			queue = append(queue, next)
		}
	}
	if goal == nil {
		return nil, fmt.Errorf("routing: no path from switch %d to %d", src, dst)
	}
	var rev []Traversal
	for st := *goal; st != start; st = parent[st].prev {
		step := parent[st]
		rev = append(rev, Traversal{Link: step.link, From: step.prev.sw})
	}
	trav := make([]Traversal, len(rev))
	for i := range rev {
		trav[i] = rev[len(rev)-1-i]
	}
	return trav, nil
}

type oracleNode struct {
	st   oracleState
	cost int64
	idx  int
}

type oracleHeap []*oracleNode

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h oracleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *oracleHeap) Push(x any)        { n := x.(*oracleNode); n.idx = len(*h); *h = append(*h, n) }
func (h *oracleHeap) Pop() any          { o := *h; n := o[len(o)-1]; *h = o[:len(o)-1]; return n }

// oracleSearchPathITB is the per-pair in-transit Dijkstra with
// container/heap, stopping at the first popped state of dst.
func oracleSearchPathITB(t *topology.Topology, ud *topology.UpDown, src, dst topology.NodeID, avoid *Avoid) ([]Traversal, []int, error) {
	if t.Node(src).Kind != topology.KindSwitch || t.Node(dst).Kind != topology.KindSwitch {
		return nil, nil, fmt.Errorf("routing: path endpoints must be switches")
	}
	if src == dst {
		return nil, nil, nil
	}
	start := oracleState{sw: src, ph: oracleUpOK}
	dist := map[oracleState]int64{start: 0}
	parent := map[oracleState]oracleStep{start: {}}
	h := &oracleHeap{}
	heap.Push(h, &oracleNode{st: start, cost: 0})
	done := map[oracleState]bool{}
	for h.Len() > 0 {
		n := heap.Pop(h).(*oracleNode)
		if done[n.st] {
			continue
		}
		done[n.st] = true
		if n.st.sw == dst {
			return oracleReconstructITB(parent, start, n.st)
		}
		st := n.st
		base := dist[st]
		relax := func(next oracleState, cost int64, step oracleStep) {
			if d, ok := dist[next]; ok && d <= cost {
				return
			}
			dist[next] = cost
			parent[next] = step
			heap.Push(h, &oracleNode{st: next, cost: cost})
		}
		if st.ph == oracleDowned && hasLiveHost(t, st.sw, avoid) {
			relax(oracleState{sw: st.sw, ph: oracleUpOK}, base+hopCost(0, 1),
				oracleStep{prev: st, itb: true})
		}
		for _, nb := range t.SwitchNeighbors(st.sw) {
			if avoid.HasLink(nb.Link.ID) {
				continue
			}
			dir := ud.DirectionOf(nb.Link, st.sw)
			if st.ph == oracleDowned && dir == topology.Up {
				continue
			}
			nextPh := st.ph
			if dir == topology.Down {
				nextPh = oracleDowned
			}
			relax(oracleState{sw: nb.Node, ph: nextPh}, base+hopCost(1, 0),
				oracleStep{prev: st, link: nb.Link})
		}
	}
	return nil, nil, fmt.Errorf("routing: no ITB path from switch %d to %d", src, dst)
}

func oracleReconstructITB(parent map[oracleState]oracleStep, start, goal oracleState) ([]Traversal, []int, error) {
	type revStep struct {
		tr  Traversal
		itb bool
	}
	var rev []revStep
	for st := goal; st != start; {
		step := parent[st]
		if step.itb {
			rev = append(rev, revStep{itb: true})
		} else {
			rev = append(rev, revStep{tr: Traversal{Link: step.link, From: step.prev.sw}})
		}
		st = step.prev
	}
	var trav []Traversal
	var itbBefore []int
	for i := len(rev) - 1; i >= 0; i-- {
		if rev[i].itb {
			itbBefore = append(itbBefore, len(trav))
			continue
		}
		trav = append(trav, rev[i].tr)
	}
	return trav, itbBefore, nil
}

// oraclePathFn is the legacy Algorithm dispatch of Table.buildRoute
// over the oracle searches, including the ITB-to-up*/down* fallback.
func oraclePathFn(t *topology.Topology, ud *topology.UpDown, alg Algorithm, avoid *Avoid) pathFunc {
	return func(srcSw, dstSw topology.NodeID) ([]Traversal, []int, []uint8, error) {
		if alg == ITBRouting {
			if trav, itbBefore, err := oracleSearchPathITB(t, ud, srcSw, dstSw, avoid); err == nil {
				return trav, itbBefore, nil, nil
			}
		}
		trav, err := oracleSearchPath(t, ud, srcSw, dstSw, avoid)
		return trav, nil, nil, err
	}
}

// equivTopology is one topology of the equivalence suite.
type equivTopology struct {
	name string
	t    *topology.Topology
}

// equivTopologies lists the suite's topologies: generated irregular
// networks at 8, 16 and 32 switches over seeds 1-60 (fewer under the
// race detector or -short), dragonfly and fat-tree at 72, 128 and 256
// hosts, and the hand-built presets.
func equivTopologies(tb testing.TB) []equivTopology {
	tb.Helper()
	seeds := 60
	if testing.Short() || raceEnabled {
		seeds = 4
	}
	var out []equivTopology
	for _, sw := range []int{8, 16, 32} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			g, err := topology.Generate(topology.DefaultGenConfig(sw, seed))
			if err != nil {
				tb.Fatalf("generate %d/%d: %v", sw, seed, err)
			}
			out = append(out, equivTopology{fmt.Sprintf("irregular-%d-s%d", sw, seed), g})
		}
	}
	for _, hosts := range []int{72, 128, 256} {
		df, err := topology.Dragonfly(topology.DefaultDragonflyConfig(hosts))
		if err != nil {
			tb.Fatalf("dragonfly-%d: %v", hosts, err)
		}
		ft, err := topology.FatTree(topology.DefaultFatTreeConfig(hosts))
		if err != nil {
			tb.Fatalf("fattree-%d: %v", hosts, err)
		}
		out = append(out,
			equivTopology{fmt.Sprintf("dragonfly-%d", hosts), df},
			equivTopology{fmt.Sprintf("fattree-%d", hosts), ft})
	}
	tb1, _ := topology.Testbed()
	out = append(out,
		equivTopology{"testbed", tb1},
		equivTopology{"ring-6-2", topology.Ring(6, 2)},
		equivTopology{"linear-5-1", topology.Linear(5, 1)})
	return out
}

// equivAvoid fails every 7th link, one host, and every host of one
// switch: enough to force detours, switches that cannot serve as an
// in-transit buffer and, on sparse topologies, unreachable pairs.
func equivAvoid(t *topology.Topology) *Avoid {
	a := &Avoid{}
	for id := 0; id < len(t.Links()); id += 7 {
		a.AddLink(id)
	}
	hosts := t.Hosts()
	a.AddHost(hosts[len(hosts)/2])
	sws := t.Switches()
	for _, h := range t.HostsAt(sws[len(sws)/3]) {
		a.AddHost(h)
	}
	return a
}

func sameTraversals(a, b []Traversal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Link.ID != b[i].Link.ID || a[i].From != b[i].From {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSingleSourceSearchMatchesPerPairOracle checks, for every switch
// pair of every suite topology with and without an exclusion set, that
// the single-source ITB search and BFS (up*/down* and unrestricted)
// return exactly the traversals, reset positions and reachability of
// the per-pair oracles.
func TestSingleSourceSearchMatchesPerPairOracle(t *testing.T) {
	pairs := 0
	for _, et := range equivTopologies(t) {
		topo := et.t
		ud := topology.BuildUpDown(topo)
		sws := topo.Switches()
		for _, avoid := range []*Avoid{nil, equivAvoid(topo)} {
			canReset := canResetAt(topo, avoid)
			var s searchScratch
			for _, src := range sws {
				itb := s.itbTree(topo, ud, src, avoid, canReset)
				bfs := s.bfsTree(topo, ud, src, avoid)
				plain := s.bfsTree(topo, nil, src, avoid)
				for _, dst := range sws {
					pairs++
					wantTrav, wantITB, wantErr := oracleSearchPathITB(topo, ud, src, dst, avoid)
					trav, itbBefore, ok := itb.path(topo, dst)
					if ok != (wantErr == nil) || !sameTraversals(trav, wantTrav) || !sameInts(itbBefore, wantITB) {
						t.Fatalf("%s avoid=%v ITB %d->%d: got %v %v reached=%v, oracle %v %v err=%v",
							et.name, avoid != nil, src, dst, trav, itbBefore, ok, wantTrav, wantITB, wantErr)
					}
					for _, c := range []struct {
						name string
						tree *srcTree
						ud   *topology.UpDown
					}{{"up*/down*", bfs, ud}, {"minimal", plain, nil}} {
						want, wantErr := oracleSearchPath(topo, c.ud, src, dst, avoid)
						got, resets, ok := c.tree.path(topo, dst)
						if ok != (wantErr == nil) || !sameTraversals(got, want) || resets != nil {
							t.Fatalf("%s avoid=%v %s BFS %d->%d: got %v reached=%v, oracle %v err=%v",
								et.name, avoid != nil, c.name, src, dst, got, ok, want, wantErr)
						}
					}
				}
			}
		}
	}
	t.Logf("%d switch pairs agree with the per-pair oracles", pairs)
}

// routeShape is the part of a Route the equivalence checks compare.
type routeShape struct {
	Segments   [][]byte
	ITBHosts   []topology.NodeID
	LinkPath   []Traversal
	SwitchPath []topology.NodeID
}

func shapeOf(r *Route) routeShape {
	return routeShape{r.Segments, r.ITBHosts, r.LinkPath, r.SwitchPath}
}

// sameTables compares two tables pair by pair in host order, so lazy
// tables resolve in the same order on both sides.
func sameTables(tb testing.TB, what string, topo *topology.Topology, got, want *Table) {
	tb.Helper()
	for _, src := range topo.Hosts() {
		for _, dst := range topo.Hosts() {
			g, gok := got.Lookup(src, dst)
			w, wok := want.Lookup(src, dst)
			if gok != wok {
				tb.Fatalf("%s %d->%d: present=%v, oracle table present=%v", what, src, dst, gok, wok)
			}
			if gok && !reflect.DeepEqual(shapeOf(g), shapeOf(w)) {
				tb.Fatalf("%s %d->%d: route %s, oracle table route %s", what, src, dst, g, w)
			}
		}
	}
}

// TestTablesMatchOracleTables checks every table entry point that runs
// the Algorithm-selected searches against the same build driven
// through the per-pair oracles.
func TestTablesMatchOracleTables(t *testing.T) {
	var topos []equivTopology
	for _, et := range equivTopologies(t) {
		switch {
		case et.name == "dragonfly-72", et.name == "fattree-72", et.name == "testbed",
			et.name == "ring-6-2", et.name == "linear-5-1":
		case et.name == "irregular-16-s1", et.name == "irregular-16-s2", et.name == "irregular-32-s3":
		default:
			continue
		}
		topos = append(topos, et)
	}
	for _, et := range topos {
		topo := et.t
		ud := topology.BuildUpDown(topo)
		avoid := equivAvoid(topo)
		for _, alg := range []Algorithm{UpDownRouting, ITBRouting} {
			name := fmt.Sprintf("%s/%v", et.name, alg)
			full, err := BuildTable(topo, ud, alg)
			if err != nil {
				t.Fatalf("%s: BuildTable: %v", name, err)
			}
			fullOracle, err := buildEngineTable(topo, ud, alg, nil, "", oraclePathFn(topo, ud, alg, nil))
			if err != nil {
				t.Fatalf("%s: oracle build: %v", name, err)
			}
			sameTables(t, name+" BuildTable", topo, full, fullOracle)

			avoided, err := BuildTableAvoiding(topo, ud, alg, avoid)
			if err != nil {
				t.Fatalf("%s: BuildTableAvoiding: %v", name, err)
			}
			avoidedOracle, _ := buildEngineTable(topo, ud, alg, avoid, "", oraclePathFn(topo, ud, alg, avoid))
			sameTables(t, name+" BuildTableAvoiding", topo, avoided, avoidedOracle)

			rebuilt, _, err := RebuildAvoiding(full, topo, ud, alg, avoid)
			if err != nil {
				t.Fatalf("%s: RebuildAvoiding: %v", name, err)
			}
			rebuiltOracle, _, _ := rebuildEngineTable(fullOracle, topo, ud, alg, avoid, "", oraclePathFn(topo, ud, alg, avoid))
			sameTables(t, name+" RebuildAvoiding", topo, rebuilt, rebuiltOracle)

			lazy := RebuildAvoidingLazy(full, topo, ud, alg, avoid, nil)
			lazyOracle := RebuildAvoidingLazy(fullOracle, topo, ud, alg, avoid, nil)
			lazyOracle.pathFn = oraclePathFn(topo, ud, alg, avoid)
			sameTables(t, name+" RebuildAvoidingLazy", topo, lazy, lazyOracle)
		}

		var e UpDownITBEngine
		eud := e.Orientation(topo)
		for _, a := range []*Avoid{nil, avoid} {
			name := fmt.Sprintf("%s/%s avoid=%v", et.name, e.Name(), a != nil)
			got, err := e.BuildTable(topo, a)
			if err != nil {
				t.Fatalf("%s: BuildTable: %v", name, err)
			}
			want, _ := buildEngineTable(topo, eud, ITBRouting, a, e.Name(), oraclePathFn(topo, eud, ITBRouting, a))
			sameTables(t, name+" engine BuildTable", topo, got, want)
		}
		prev, _ := e.BuildTable(topo, nil)
		prevOracle, _ := buildEngineTable(topo, eud, ITBRouting, nil, e.Name(), oraclePathFn(topo, eud, ITBRouting, nil))
		got, _, err := e.RebuildAvoiding(prev, topo, avoid)
		if err != nil {
			t.Fatalf("%s: engine RebuildAvoiding: %v", et.name, err)
		}
		want, _, _ := rebuildEngineTable(prevOracle, topo, eud, ITBRouting, avoid, e.Name(), oraclePathFn(topo, eud, ITBRouting, avoid))
		sameTables(t, et.name+" engine RebuildAvoiding", topo, got, want)
	}
}
