package routing

import (
	"repro/internal/topology"
)

// Avoid is the exclusion set a route recomputation works around: the
// links and hosts the mapper currently believes dead. A nil *Avoid
// excludes nothing, so every search helper treats it as "no faults".
// Both sets are dense, indexed by link id and node id, since the
// searches probe them on every edge and every in-transit candidate.
type Avoid struct {
	links []bool // failed link ids
	hosts []bool // failed (or stalled) hosts, by node id
}

// AvoidLinks builds an Avoid from a list of link ids.
func AvoidLinks(links ...int) *Avoid {
	a := &Avoid{}
	for _, l := range links {
		a.AddLink(l)
	}
	return a
}

// AddLink marks a link failed, returning the receiver for chaining.
func (a *Avoid) AddLink(id int) *Avoid {
	a.links = mark(a.links, id)
	return a
}

// AddHost marks a host failed, returning the receiver for chaining.
func (a *Avoid) AddHost(h topology.NodeID) *Avoid {
	a.hosts = mark(a.hosts, int(h))
	return a
}

// mark sets set[i], growing the set to cover i.
func mark(set []bool, i int) []bool {
	if i >= len(set) {
		set = append(set, make([]bool, i+1-len(set))...)
	}
	set[i] = true
	return set
}

// HasLink reports whether link id is marked failed.
func (a *Avoid) HasLink(id int) bool {
	return a != nil && uint(id) < uint(len(a.links)) && a.links[id]
}

// HasHost reports whether host h is marked failed. It does not look at
// the host's cable; the searches also treat a host behind a failed
// link as dead.
func (a *Avoid) HasHost(h topology.NodeID) bool {
	return a != nil && uint(h) < uint(len(a.hosts)) && a.hosts[h]
}

// hostDead reports whether a host is unusable: marked failed, not
// cabled, or cabled through a failed link.
func (a *Avoid) hostDead(t *topology.Topology, h topology.NodeID) bool {
	if a == nil {
		return false
	}
	if a.HasHost(h) {
		return true
	}
	hl := t.LinkAt(h, 0)
	return hl == nil || a.HasLink(hl.ID)
}

// hasLiveHost reports whether switch sw has a host that can still
// serve as an in-transit buffer under the exclusion set.
func hasLiveHost(t *topology.Topology, sw topology.NodeID, avoid *Avoid) bool {
	for _, h := range t.HostsAt(sw) {
		if !avoid.hostDead(t, h) {
			return true
		}
	}
	return false
}

// BuildTableAvoiding recomputes the route table around an exclusion
// set, as the mapper does after detecting faults. Differences from
// BuildTable:
//
//   - Pairs whose endpoint host is dead (or cabled through a dead
//     link) get no route at all; Lookup reports them missing and GM
//     fails such sends immediately.
//   - With ITBRouting, a pair whose minimal path can no longer be
//     repaired — no valid in-transit host survives on any minimal
//     path — falls back to a pure up*/down* route over the live links.
//   - Pairs disconnected even under up*/down* are silently omitted
//     rather than failing the whole build: the rest of the network
//     keeps routing.
//
// A nil avoid makes it equivalent to BuildTable.
func BuildTableAvoiding(t *topology.Topology, ud *topology.UpDown, alg Algorithm, avoid *Avoid) (*Table, error) {
	tbl := newTable(t, alg, avoid, "", nil)
	err := tbl.buildAll(ud, false)
	return tbl, err
}
