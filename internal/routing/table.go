package routing

import (
	"fmt"
	"sync"

	"repro/internal/packet"
	"repro/internal/topology"
)

// Algorithm selects how the mapper computes routes.
type Algorithm int

const (
	// UpDownRouting is stock Myrinet: shortest up*/down*-legal routes.
	UpDownRouting Algorithm = iota
	// ITBRouting is the paper's mechanism: minimal routes with
	// up*/down* violations repaired by in-transit buffers.
	ITBRouting
)

// String names the routing algorithm.
func (a Algorithm) String() string {
	if a == UpDownRouting {
		return "up*/down*"
	}
	return "up*/down* + ITB"
}

// Table holds the source routes between every ordered host pair, as
// the mapper would store them in each NIC's SRAM.
type Table struct {
	Algorithm Algorithm
	routes    map[[2]topology.NodeID]*Route
	// itbLoad counts in-transit assignments per host, used to balance
	// host selection at in-transit switches.
	itbLoad map[topology.NodeID]int
	// pathCache memoises switch-pair paths: all host pairs on the
	// same switch pair share one path (ITB host choice still varies
	// per route for balance).
	pathCache map[[2]topology.NodeID]cachedPath
	// search memoises the Algorithm-selected searches, one tree per
	// source switch.
	search *tableSearch
	// avoid is the exclusion set the table was built around (nil when
	// built fault-free by BuildTable).
	avoid *Avoid
	// engine names the Engine that built the table ("" for the legacy
	// BuildTable/BuildTableAvoiding entry points), and pathFn is that
	// engine's switch-pair search. With a nil pathFn buildRoute uses
	// the Algorithm-selected searches.
	engine string
	pathFn pathFunc
	// lazyFill, when non-nil, resolves Lookup misses on demand (tables
	// from RebuildAvoidingLazy); eager tables leave it nil.
	lazyFill *lazyRebuild
}

// newTable returns an empty table ready for buildRoute, with room for
// routes host pairs.
func newTable(alg Algorithm, avoid *Avoid, engine string, fn pathFunc, routes int) *Table {
	return &Table{
		Algorithm: alg,
		routes:    make(map[[2]topology.NodeID]*Route, routes),
		itbLoad:   make(map[topology.NodeID]int),
		pathCache: make(map[[2]topology.NodeID]cachedPath),
		avoid:     avoid,
		engine:    engine,
		pathFn:    fn,
	}
}

// release drops the build-only state of an eagerly built table: no
// route is built on it after it is returned. Lazy tables keep theirs,
// since each Lookup miss may search again.
func (tbl *Table) release() {
	tbl.itbLoad, tbl.pathCache, tbl.search = nil, nil, nil
}

// tableSearch holds a table's single-source search trees, indexed by
// source switch: ITB trees for ITBRouting, BFS trees for UpDownRouting
// and the ITB fallback. canReset is computed once per table.
type tableSearch struct {
	itb, bfs []*srcTree
	canReset []bool
}

// scratchPool lends search scratch to table searches, so a lazy table
// holds none between its occasional searches.
var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// Engine returns the name of the Engine that built the table, or ""
// for tables from the legacy entry points.
func (tbl *Table) Engine() string { return tbl.engine }

type cachedPath struct {
	trav      []Traversal
	itbBefore []int
	// lanes is the virtual-channel lane of each traversal (nil means
	// everything rides lane 0; only lane-aware engines populate it).
	lanes []uint8
}

// BuildTable computes routes for all ordered host pairs.
func BuildTable(t *topology.Topology, ud *topology.UpDown, alg Algorithm) (*Table, error) {
	hosts := t.Hosts()
	tbl := newTable(alg, nil, "", nil, len(hosts)*len(hosts))
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			r, err := tbl.buildRoute(t, ud, src, dst)
			if err != nil {
				return nil, err
			}
			tbl.routes[[2]topology.NodeID{src, dst}] = r
		}
	}
	tbl.release()
	return tbl, nil
}

// Lookup returns the route from src to dst. On a lazily rebuilt
// table a miss resolves (and memoizes) the pair on demand.
func (tbl *Table) Lookup(src, dst topology.NodeID) (*Route, bool) {
	r, ok := tbl.routes[[2]topology.NodeID{src, dst}]
	if ok || tbl.lazyFill == nil {
		return r, ok
	}
	return tbl.resolveLazy(src, dst)
}

// materialize forces every unresolved pair of a lazily rebuilt table
// so whole-table accessors see the complete route set; eager tables
// are untouched.
func (tbl *Table) materialize() {
	if tbl.lazyFill == nil {
		return
	}
	hosts := tbl.lazyFill.topo.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				tbl.Lookup(src, dst)
			}
		}
	}
	tbl.lazyFill = nil
}

// Routes returns every route in the table (iteration order is not
// specified; callers that need determinism should iterate host pairs).
func (tbl *Table) Routes() []*Route {
	tbl.materialize()
	out := make([]*Route, 0, len(tbl.routes))
	for _, r := range tbl.routes {
		out = append(out, r)
	}
	return out
}

// Len returns the number of routes.
func (tbl *Table) Len() int {
	tbl.materialize()
	return len(tbl.routes)
}

// buildRoute assembles a host-to-host Route from a switch path.
func (tbl *Table) buildRoute(t *topology.Topology, ud *topology.UpDown, src, dst topology.NodeID) (*Route, error) {
	srcSw, ok := t.SwitchOf(src)
	if !ok {
		return nil, fmt.Errorf("routing: host %d not cabled", src)
	}
	dstSw, ok := t.SwitchOf(dst)
	if !ok {
		return nil, fmt.Errorf("routing: host %d not cabled", dst)
	}
	key := [2]topology.NodeID{srcSw, dstSw}
	cp, cached := tbl.pathCache[key]
	switch {
	case cached:
	case tbl.pathFn != nil:
		var err error
		cp.trav, cp.itbBefore, cp.lanes, err = tbl.pathFn(srcSw, dstSw)
		if err != nil {
			return nil, err
		}
		tbl.pathCache[key] = cp
	default:
		var err error
		if cp, err = tbl.searchPair(t, ud, srcSw, dstSw); err != nil {
			return nil, err
		}
		tbl.pathCache[key] = cp
	}
	return tbl.assemble(t, src, dst, srcSw, cp.trav, cp.itbBefore, cp.lanes)
}

// searchPair reads the Algorithm-selected path for one switch pair
// from the source switch's search tree, searching on first use.
func (tbl *Table) searchPair(t *topology.Topology, ud *topology.UpDown, srcSw, dstSw topology.NodeID) (cachedPath, error) {
	if tbl.Algorithm != UpDownRouting && tbl.Algorithm != ITBRouting {
		return cachedPath{}, fmt.Errorf("routing: unknown algorithm %d", tbl.Algorithm)
	}
	s := tbl.search
	if s == nil {
		s = &tableSearch{}
		tbl.search = s
	}
	n := t.NumNodes()
	if tbl.Algorithm == ITBRouting {
		if s.itb == nil {
			s.itb = make([]*srcTree, n)
			s.canReset = canResetAt(t, tbl.avoid)
		}
		if s.itb[srcSw] == nil {
			sc := scratchPool.Get().(*searchScratch)
			s.itb[srcSw] = sc.itbTree(t, ud, srcSw, tbl.avoid, s.canReset)
			scratchPool.Put(sc)
		}
		if trav, itbBefore, ok := s.itb[srcSw].path(t, dstSw); ok {
			return cachedPath{trav: trav, itbBefore: itbBefore}, nil
		}
		// No minimal path is ITB-repairable under the exclusion set
		// (every candidate in-transit host is dead): fall back to a
		// pure up*/down* route over the live links.
	}
	if s.bfs == nil {
		s.bfs = make([]*srcTree, n)
	}
	if s.bfs[srcSw] == nil {
		sc := scratchPool.Get().(*searchScratch)
		s.bfs[srcSw] = sc.bfsTree(t, ud, srcSw, tbl.avoid)
		scratchPool.Put(sc)
	}
	trav, _, ok := s.bfs[srcSw].path(t, dstSw)
	if !ok {
		return cachedPath{}, fmt.Errorf("routing: no path from switch %d to %d", srcSw, dstSw)
	}
	return cachedPath{trav: trav}, nil
}

// assemble converts a switch traversal plus ITB reset positions (and,
// for lane-aware engines, per-traversal lane assignments) into a
// Route with port bytes, in-transit host choices, and link path. Lane
// changes embed as [VCTag][lane] pairs in the segment bytes, emitted
// exactly where the wire lane (what the fabric infers while consuming
// the route: lane 0 at every injection, then the last selected lane)
// diverges from the lane the path wants for the next hop.
func (tbl *Table) assemble(t *topology.Topology, src, dst, srcSw topology.NodeID, trav []Traversal, itbBefore []int, lanes []uint8) (*Route, error) {
	// Size every slice exactly: the route has one hop per traversal,
	// plus the two host links and an ejection and re-injection per ITB.
	nITB := len(itbBefore)
	r := &Route{
		Src:        src,
		Dst:        dst,
		Segments:   make([][]byte, 0, nITB+1),
		SwitchPath: make([]topology.NodeID, 0, len(trav)+nITB+1),
		LinkPath:   make([]Traversal, 0, len(trav)+2*nITB+2),
	}
	if nITB > 0 {
		r.ITBHosts = make([]topology.NodeID, 0, nITB)
	}
	hostUp := t.LinkAt(src, 0)   // src host -> its switch
	hostDown := t.LinkAt(dst, 0) // last switch -> dst host
	laned := lanes != nil
	wireLane := uint8(0)

	r.LinkPath = append(r.LinkPath, Traversal{Link: hostUp, From: src})
	if laned {
		// Injections always enter on lane 0.
		r.Lanes = make([]uint8, 1, cap(r.LinkPath))
	}

	// Split trav at the itbBefore indices. The segments' port bytes
	// share one backing array, each segment capped at its own end.
	nextITB := 0
	buf := make([]byte, 0, len(trav)+nITB+1)
	segStart := 0
	endSegment := func() {
		r.Segments = append(r.Segments, buf[segStart:len(buf):len(buf)])
		segStart = len(buf)
	}
	curSw := srcSw
	r.SwitchPath = append(r.SwitchPath, curSw)
	flushSegment := func(itbSwitch topology.NodeID) error {
		// Eject into a live host of itbSwitch: pick the least-loaded
		// host (deterministic tie-break by id).
		hosts := liveHostsAt(t, itbSwitch, tbl.avoid)
		if len(hosts) == 0 {
			return fmt.Errorf("routing: ITB needed at switch %d which has no live hosts", itbSwitch)
		}
		best := hosts[0]
		for _, h := range hosts[1:] {
			if tbl.itbLoad[h] < tbl.itbLoad[best] {
				best = h
			}
		}
		tbl.itbLoad[best]++
		hl := t.LinkAt(best, 0)
		// Final port byte of this segment delivers into the ITB host.
		buf = append(buf, byte(hl.PortAt(itbSwitch)))
		r.LinkPath = append(r.LinkPath, Traversal{Link: hl, From: itbSwitch})
		endSegment()
		r.ITBHosts = append(r.ITBHosts, best)
		// Re-injection back into the same switch.
		r.LinkPath = append(r.LinkPath, Traversal{Link: hl, From: best})
		// The re-injected packet crosses the switch again.
		r.SwitchPath = append(r.SwitchPath, itbSwitch)
		if laned {
			// The ejection rides whatever lane the packet was on; the
			// re-injection is a fresh lane-0 entry.
			r.Lanes = append(r.Lanes, wireLane, 0)
			wireLane = 0
		}
		return nil
	}
	for i, tr := range trav {
		for nextITB < len(itbBefore) && itbBefore[nextITB] == i {
			if err := flushSegment(curSw); err != nil {
				return nil, err
			}
			nextITB++
		}
		if laned && lanes[i] != wireLane {
			buf = append(buf, packet.VCTag, lanes[i])
			wireLane = lanes[i]
		}
		buf = append(buf, byte(tr.Link.PortAt(tr.From)))
		r.LinkPath = append(r.LinkPath, tr)
		if laned {
			r.Lanes = append(r.Lanes, wireLane)
		}
		curSw = tr.To()
		r.SwitchPath = append(r.SwitchPath, curSw)
	}
	// Trailing resets (ITB at the destination switch) would be
	// pointless; the search never produces them, but guard anyway.
	for nextITB < len(itbBefore) {
		if err := flushSegment(curSw); err != nil {
			return nil, err
		}
		nextITB++
	}
	// Deliver into dst.
	buf = append(buf, byte(hostDown.PortAt(curSw)))
	endSegment()
	r.LinkPath = append(r.LinkPath, Traversal{Link: hostDown, From: curSw})
	if laned {
		// The delivery hop stays on the current lane.
		r.Lanes = append(r.Lanes, wireLane)
	}
	// Encode the wire header once. It is the segments joined by ITB
	// tag/length pairs, so the segments become views into it and the
	// route keeps a single copy of its port bytes.
	hdr, err := packet.BuildITBRoute(r.Segments)
	if err != nil {
		r.headerErr = err
		return r, nil
	}
	r.header = hdr
	off := 0
	for i, seg := range r.Segments {
		r.Segments[i] = hdr[off : off+len(seg) : off+len(seg)]
		off += len(seg) + 2
	}
	return r, nil
}
