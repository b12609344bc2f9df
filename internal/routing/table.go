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
// the mapper would store them in each NIC's SRAM: one row per source
// host, indexed by destination.
type Table struct {
	Algorithm Algorithm
	topo      *topology.Topology
	// routes[i][j] is the route from the i-th to the j-th host (dense
	// host indices, topology.HostIndex). A row is allocated at full
	// width on its first write, so a lazy table pays only for the
	// sources it resolves. nil means no route (on a lazy table: not
	// resolved yet); unroutable memoizes a lazy miss with no route.
	routes [][]*Route
	// count is the number of routes, memoized failures excluded.
	count int
	// itbLoad counts in-transit assignments per host (by node id),
	// used to balance host selection at in-transit switches.
	itbLoad []int
	// pathCache memoises switch-pair paths, by source and destination
	// switch index: all host pairs on the same switch pair share one
	// path (ITB host choice still varies per route for balance).
	pathCache [][]cachedPath
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

// unroutable is the row entry memoizing a lazily resolved pair that
// has no route. It never leaves the table.
var unroutable = new(Route)

// newTable returns an empty table on t ready for buildRoute. Route
// rows are allocated on their first write, or all at once by
// allocEager. The build state is allocated on first use: lazy tables
// are many (one per gossip dead set) and most resolve a single source.
func newTable(t *topology.Topology, alg Algorithm, avoid *Avoid, engine string, fn pathFunc) *Table {
	return &Table{
		Algorithm: alg,
		topo:      t,
		routes:    make([][]*Route, t.NumHosts()),
		avoid:     avoid,
		engine:    engine,
		pathFn:    fn,
	}
}

// store records r (or unroutable) as the route from the i-th to the
// j-th host.
func (tbl *Table) store(i, j int, r *Route) {
	row := tbl.routes[i]
	if row == nil {
		row = make([]*Route, len(tbl.routes))
		tbl.routes[i] = row
	}
	row[j] = r
	if r != unroutable {
		tbl.count++
	}
}

// allocEager allocates every route row and path-cache row up front,
// one block each: an eager build writes them all.
func (tbl *Table) allocEager() {
	fillRows(tbl.routes)
	tbl.pathCache = make([][]cachedPath, tbl.topo.NumNodes()-len(tbl.routes))
	fillRows(tbl.pathCache)
}

// fillRows points the rows of the square matrix m into one allocation.
func fillRows[T any](m [][]T) {
	n := len(m)
	flat := make([]T, n*n)
	for i := range m {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
}

// addITBLoad charges the in-transit hosts of a route adopted into the
// table, so later replacement routes balance around it.
func (tbl *Table) addITBLoad(r *Route) {
	for _, h := range r.ITBHosts {
		tbl.loadOf()[h]++
	}
}

// loadOf returns the in-transit load counters, allocating them on
// first use.
func (tbl *Table) loadOf() []int {
	if tbl.itbLoad == nil {
		tbl.itbLoad = make([]int, tbl.topo.NumNodes())
	}
	return tbl.itbLoad
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
	ok        bool // set once the path is cached
	trav      []Traversal
	itbBefore []int
	// lanes is the virtual-channel lane of each traversal (nil means
	// everything rides lane 0; only lane-aware engines populate it).
	lanes []uint8
}

// BuildTable computes routes for all ordered host pairs.
func BuildTable(t *topology.Topology, ud *topology.UpDown, alg Algorithm) (*Table, error) {
	tbl := newTable(t, alg, nil, "", nil)
	if err := tbl.buildAll(ud, true); err != nil {
		return nil, err
	}
	return tbl, nil
}

// buildAll routes every ordered pair of live hosts into an empty
// table, then releases the build state. With strict set the first
// pair that fails to route fails the build; otherwise such pairs are
// omitted (unreachable under the exclusion set).
func (tbl *Table) buildAll(ud *topology.UpDown, strict bool) error {
	tbl.allocEager()
	t := tbl.topo
	hosts := t.Hosts()
	for i, src := range hosts {
		if tbl.avoid.hostDead(t, src) {
			continue
		}
		for j, dst := range hosts {
			if src == dst || tbl.avoid.hostDead(t, dst) {
				continue
			}
			r, err := tbl.buildRoute(t, ud, src, dst)
			if err != nil {
				if strict {
					return err
				}
				continue
			}
			tbl.store(i, j, r)
		}
	}
	tbl.release()
	return nil
}

// Lookup returns the route from src to dst. On a lazily rebuilt
// table a miss resolves (and memoizes) the pair on demand.
func (tbl *Table) Lookup(src, dst topology.NodeID) (*Route, bool) {
	i, ok := tbl.topo.HostIndex(src)
	if !ok {
		return nil, false
	}
	j, ok := tbl.topo.HostIndex(dst)
	if !ok {
		return nil, false
	}
	if row := tbl.routes[i]; row != nil {
		if r := row[j]; r != nil {
			return r, r != unroutable
		}
	}
	if tbl.lazyFill == nil {
		return nil, false
	}
	return tbl.resolveLazy(src, dst, i, j)
}

// materialize forces every unresolved pair of a lazily rebuilt table
// so whole-table accessors see the complete route set; eager tables
// are untouched.
func (tbl *Table) materialize() {
	if tbl.lazyFill == nil {
		return
	}
	hosts := tbl.topo.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				tbl.Lookup(src, dst)
			}
		}
	}
	tbl.lazyFill = nil
}

// Routes returns every route in the table in (source, destination)
// host id order: the order of a Lookup walk over all host pairs.
func (tbl *Table) Routes() []*Route {
	tbl.materialize()
	out := make([]*Route, 0, tbl.count)
	for _, row := range tbl.routes {
		for _, r := range row {
			if r != nil && r != unroutable {
				out = append(out, r)
			}
		}
	}
	return out
}

// Len returns the number of routes.
func (tbl *Table) Len() int {
	tbl.materialize()
	return tbl.count
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
	si, _ := t.SwitchIndex(srcSw)
	di, _ := t.SwitchIndex(dstSw)
	if tbl.pathCache == nil {
		tbl.pathCache = make([][]cachedPath, t.NumNodes()-len(tbl.routes))
	}
	row := tbl.pathCache[si]
	if row == nil {
		row = make([]cachedPath, len(tbl.pathCache))
		tbl.pathCache[si] = row
	}
	cp := &row[di]
	if !cp.ok {
		var err error
		if tbl.pathFn != nil {
			cp.trav, cp.itbBefore, cp.lanes, err = tbl.pathFn(srcSw, dstSw)
		} else {
			*cp, err = tbl.searchPair(t, ud, srcSw, dstSw)
		}
		if err != nil {
			*cp = cachedPath{}
			return nil, err
		}
		cp.ok = true
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
		load := tbl.loadOf()
		best := topology.NodeID(-1)
		for _, h := range t.HostsAt(itbSwitch) {
			if !tbl.avoid.hostDead(t, h) && (best < 0 || load[h] < load[best]) {
				best = h
			}
		}
		if best < 0 {
			return fmt.Errorf("routing: ITB needed at switch %d which has no live hosts", itbSwitch)
		}
		load[best]++
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
