package routing

import (
	"repro/internal/topology"
)

// Avoid is the exclusion set a route recomputation works around: the
// links and hosts the mapper currently believes dead. A nil *Avoid
// excludes nothing, so every search helper treats it as "no faults".
type Avoid struct {
	Links map[int]bool             // failed link ids
	Hosts map[topology.NodeID]bool // failed (or stalled) hosts
}

// AvoidLinks builds an Avoid from a list of link ids.
func AvoidLinks(links ...int) *Avoid {
	a := &Avoid{Links: make(map[int]bool)}
	for _, l := range links {
		a.Links[l] = true
	}
	return a
}

// AddHost marks a host failed, returning the receiver for chaining.
func (a *Avoid) AddHost(h topology.NodeID) *Avoid {
	if a.Hosts == nil {
		a.Hosts = make(map[topology.NodeID]bool)
	}
	a.Hosts[h] = true
	return a
}

func (a *Avoid) avoidsLink(id int) bool {
	return a != nil && a.Links[id]
}

// hostDead reports whether a host is unusable: marked failed, not
// cabled, or cabled through a failed link.
func (a *Avoid) hostDead(t *topology.Topology, h topology.NodeID) bool {
	if a == nil {
		return false
	}
	if a.Hosts[h] {
		return true
	}
	hl := t.LinkAt(h, 0)
	return hl == nil || a.Links[hl.ID]
}

// liveHostsAt returns the hosts of switch sw that can still serve as
// in-transit buffers under the exclusion set.
func liveHostsAt(t *topology.Topology, sw topology.NodeID, avoid *Avoid) []topology.NodeID {
	hosts := t.HostsAt(sw)
	if avoid == nil {
		return hosts
	}
	live := make([]topology.NodeID, 0, len(hosts))
	for _, h := range hosts {
		if !avoid.hostDead(t, h) {
			live = append(live, h)
		}
	}
	return live
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
	hosts := t.Hosts()
	tbl := newTable(alg, avoid, "", nil, len(hosts)*len(hosts))
	for _, src := range hosts {
		if avoid.hostDead(t, src) {
			continue
		}
		for _, dst := range hosts {
			if src == dst || avoid.hostDead(t, dst) {
				continue
			}
			r, err := tbl.buildRoute(t, ud, src, dst)
			if err != nil {
				// Unreachable under the exclusion set: omit the pair.
				continue
			}
			tbl.routes[[2]topology.NodeID{src, dst}] = r
		}
	}
	tbl.release()
	return tbl, nil
}
