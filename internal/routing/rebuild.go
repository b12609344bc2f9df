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
		if avoid.HasLink(tr.Link.ID) {
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
	tbl := newTable(t, alg, avoid, "", nil)
	return tbl, tbl.rebuildFrom(prev, ud), nil
}

// rebuildFrom fills an empty table from prev: every pair of live hosts
// adopts prev's route while it survives the exclusion set, and the
// invalidated pairs are searched again once all survivors (and their
// in-transit load) are in. Pairs unreachable under the exclusion set
// are omitted, as BuildTableAvoiding does. It releases the build state
// and returns the number of routes reused.
func (tbl *Table) rebuildFrom(prev *Table, ud *topology.UpDown) int {
	tbl.allocEager()
	t := tbl.topo
	hosts := t.Hosts()
	reused := 0
	type pair struct{ i, j int }
	var missing []pair
	for i, src := range hosts {
		if tbl.avoid.hostDead(t, src) {
			continue
		}
		for j, dst := range hosts {
			if src == dst || tbl.avoid.hostDead(t, dst) {
				continue
			}
			if r, ok := prev.Lookup(src, dst); ok && routeValid(t, r, tbl.avoid) {
				tbl.store(i, j, r)
				tbl.addITBLoad(r)
				reused++
				continue
			}
			missing = append(missing, pair{i, j})
		}
	}
	for _, p := range missing {
		if r, err := tbl.buildRoute(t, ud, hosts[p.i], hosts[p.j]); err == nil {
			tbl.store(p.i, p.j, r)
		}
	}
	tbl.release()
	return reused
}

// lazyRebuild is the deferred-resolution state of a table returned by
// RebuildAvoidingLazy: Lookup misses resolve against it on demand.
type lazyRebuild struct {
	prev *Table
	ud   *topology.UpDown
	// reused, when non-nil, is incremented for every route adopted
	// from prev — the lazy analogue of RebuildAvoiding's return count.
	reused *uint64
}

// RebuildAvoidingLazy is RebuildAvoiding with on-demand resolution:
// the returned table starts empty and each Lookup miss either adopts
// prev's still-valid route or searches a replacement, memoizing
// either way (a pair with no route under the exclusion set, such as a
// dead endpoint, is memoized as a failure so repeated sends to a dead
// peer do not search again). Eager rebuilds pay O(hosts²) per distinct
// exclusion set just to copy the survivors; a lazy table pays only for
// the sources and pairs traffic actually uses, which is what makes
// per-agent gossip installs (every host rebuilding around its own
// local dead set, in its own order) affordable at thousand-host
// scales. A nil prev (or one built by a different algorithm) resolves
// every pair by search.
//
// The returned table is for single-goroutine simulation use: Lookup
// mutates it.
func RebuildAvoidingLazy(prev *Table, t *topology.Topology, ud *topology.UpDown, alg Algorithm, avoid *Avoid, reused *uint64) *Table {
	tbl := newTable(t, alg, avoid, "", nil)
	if prev != nil && prev.Algorithm != alg {
		prev = nil
	}
	tbl.lazyFill = &lazyRebuild{prev: prev, ud: ud, reused: reused}
	return tbl
}

// resolveLazy fills one pair, the i-th to the j-th host, of a lazily
// rebuilt table, mirroring one iteration of RebuildAvoiding's loop:
// dead endpoints are omitted, surviving prev routes are shared (routes
// are immutable once built), and invalidated pairs are searched under
// the exclusion set.
func (tbl *Table) resolveLazy(src, dst topology.NodeID, i, j int) (*Route, bool) {
	lz, t := tbl.lazyFill, tbl.topo
	if src == dst || tbl.avoid.hostDead(t, src) || tbl.avoid.hostDead(t, dst) {
		tbl.store(i, j, unroutable)
		return nil, false
	}
	if lz.prev != nil {
		if r, ok := lz.prev.Lookup(src, dst); ok && routeValid(t, r, tbl.avoid) {
			tbl.store(i, j, r)
			tbl.addITBLoad(r)
			if lz.reused != nil {
				*lz.reused++
			}
			return r, true
		}
	}
	r, err := tbl.buildRoute(t, lz.ud, src, dst)
	if err != nil {
		tbl.store(i, j, unroutable)
		return nil, false
	}
	tbl.store(i, j, r)
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
	return newTable(t, alg, avoid, "", nil).buildRoute(t, ud, src, dst)
}
