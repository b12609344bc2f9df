package routing

import (
	"fmt"

	"repro/internal/topology"
)

// routeValid reports whether a previously built route survives an
// exclusion set: every link it crosses is live and every in-transit
// host it ejects through is usable. Endpoint liveness is the caller's
// check (the rebuild loop skips dead endpoints wholesale).
func routeValid(t *topology.Topology, r *Route, avoid *Avoid) bool {
	for _, tr := range r.LinkPath {
		if avoid.avoidsLink(tr.Link.ID) {
			return false
		}
	}
	for _, h := range r.ITBHosts {
		if avoid.hostDead(t, h) {
			return false
		}
	}
	return true
}

// RebuildAvoiding is the incremental form of BuildTableAvoiding the
// recovery manager uses at each epoch publish: routes of prev that
// remain valid under the exclusion set are carried into the new table
// unchanged (routes are immutable once built, so sharing is safe),
// and only the invalidated pairs are searched again. The in-transit
// load balance is seeded from the reused routes so replacement routes
// spread over the hosts the survivors left least loaded. It returns
// the new table and the number of routes reused.
//
// A prev of nil (or with a different algorithm) degenerates to a full
// BuildTableAvoiding.
func RebuildAvoiding(prev *Table, t *topology.Topology, ud *topology.UpDown, alg Algorithm, avoid *Avoid) (*Table, int, error) {
	if prev == nil || prev.Algorithm != alg {
		tbl, err := BuildTableAvoiding(t, ud, alg, avoid)
		return tbl, 0, err
	}
	hosts := t.Hosts()
	tbl := newTable(alg, avoid, "", nil, len(hosts)*len(hosts))
	reused := 0
	type pair struct{ src, dst topology.NodeID }
	var missing []pair
	for _, src := range hosts {
		if avoid.hostDead(t, src) {
			continue
		}
		for _, dst := range hosts {
			if src == dst || avoid.hostDead(t, dst) {
				continue
			}
			if r, ok := prev.Lookup(src, dst); ok && routeValid(t, r, avoid) {
				tbl.routes[[2]topology.NodeID{src, dst}] = r
				for _, h := range r.ITBHosts {
					tbl.itbLoad[h]++
				}
				reused++
				continue
			}
			missing = append(missing, pair{src, dst})
		}
	}
	for _, p := range missing {
		r, err := tbl.buildRoute(t, ud, p.src, p.dst)
		if err != nil {
			// Unreachable under the exclusion set: omit the pair, as
			// BuildTableAvoiding does.
			continue
		}
		tbl.routes[[2]topology.NodeID{p.src, p.dst}] = r
	}
	tbl.release()
	return tbl, reused, nil
}

// lazyRebuild is the deferred-resolution state of a table returned by
// RebuildAvoidingLazy: Lookup misses resolve against it on demand.
type lazyRebuild struct {
	prev *Table
	topo *topology.Topology
	ud   *topology.UpDown
	// failed memoizes pairs with no route under the exclusion set
	// (dead endpoints, unreachable under the avoid set), so repeated
	// sends to a dead peer don't re-search every time.
	failed map[[2]topology.NodeID]struct{}
	// reused, when non-nil, is incremented for every route adopted
	// from prev — the lazy analogue of RebuildAvoiding's return count.
	reused *uint64
}

// RebuildAvoidingLazy is RebuildAvoiding with on-demand resolution:
// the returned table starts empty and each Lookup miss either adopts
// prev's still-valid route or searches a replacement, memoizing
// either way. Eager rebuilds pay O(hosts²) per distinct exclusion
// set just to copy the survivors; a lazy table pays only for the
// pairs traffic actually uses, which is what makes per-agent gossip
// installs (every host rebuilding around its own local dead set, in
// its own order) affordable at thousand-host scales. A nil prev (or
// one built by a different algorithm) resolves every pair by search.
//
// The returned table is for single-goroutine simulation use: Lookup
// mutates it.
func RebuildAvoidingLazy(prev *Table, t *topology.Topology, ud *topology.UpDown, alg Algorithm, avoid *Avoid, reused *uint64) *Table {
	tbl := newTable(alg, avoid, "", nil, 0)
	if prev != nil && prev.Algorithm != alg {
		prev = nil
	}
	tbl.lazyFill = &lazyRebuild{
		prev:   prev,
		topo:   t,
		ud:     ud,
		failed: make(map[[2]topology.NodeID]struct{}),
		reused: reused,
	}
	return tbl
}

// resolveLazy fills one pair of a lazily rebuilt table, mirroring one
// iteration of RebuildAvoiding's loop: dead endpoints are omitted,
// surviving prev routes are shared (routes are immutable once built),
// and invalidated pairs are searched under the exclusion set.
func (tbl *Table) resolveLazy(src, dst topology.NodeID) (*Route, bool) {
	lz := tbl.lazyFill
	key := [2]topology.NodeID{src, dst}
	if _, bad := lz.failed[key]; bad {
		return nil, false
	}
	if src == dst || tbl.avoid.hostDead(lz.topo, src) || tbl.avoid.hostDead(lz.topo, dst) {
		lz.failed[key] = struct{}{}
		return nil, false
	}
	if lz.prev != nil {
		if r, ok := lz.prev.Lookup(src, dst); ok && routeValid(lz.topo, r, tbl.avoid) {
			tbl.routes[key] = r
			for _, h := range r.ITBHosts {
				tbl.itbLoad[h]++
			}
			if lz.reused != nil {
				*lz.reused++
			}
			return r, true
		}
	}
	r, err := tbl.buildRoute(lz.topo, lz.ud, src, dst)
	if err != nil {
		lz.failed[key] = struct{}{}
		return nil, false
	}
	tbl.routes[key] = r
	return r, true
}

// FindRoute computes one route src->dst under an exclusion set
// without building a table — the recovery manager's verification
// probes use it to reach a suspect over an alternate path that avoids
// the links the primary route crossed.
func FindRoute(t *topology.Topology, ud *topology.UpDown, alg Algorithm, src, dst topology.NodeID, avoid *Avoid) (*Route, error) {
	if avoid.hostDead(t, src) || avoid.hostDead(t, dst) {
		return nil, fmt.Errorf("routing: endpoint %d->%d dead under exclusion set", src, dst)
	}
	tbl := newTable(alg, avoid, "", nil, 0)
	return tbl.buildRoute(t, ud, src, dst)
}
