// Package routing implements the route computation the Myrinet mapper
// performs, in both its stock form (up*/down* source routes) and the
// paper's modified form (minimal routes legalised with In-Transit
// Buffers), plus the channel-dependency analysis that proves the
// resulting route sets deadlock free.
package routing

import (
	"fmt"
	"strings"

	"repro/internal/packet"
	"repro/internal/topology"
)

// Route is a source route between two hosts. A route consists of one
// or more up*/down*-legal segments; consecutive segments are separated
// by an ejection/re-injection at an in-transit host.
type Route struct {
	Src, Dst topology.NodeID
	// Segments holds the per-segment switch output port bytes, as
	// stamped into the packet header. Segment i ends by delivering the
	// packet into ITBHosts[i] (or Dst for the last segment).
	Segments [][]byte
	// ITBHosts lists the in-transit hosts, one per segment boundary.
	ITBHosts []topology.NodeID
	// SwitchPath is the full sequence of switches traversed, in order,
	// counting revisits. Its length is the "switches crossed" count
	// the paper reports.
	SwitchPath []topology.NodeID
	// LinkPath is the directed traversal of every link in order,
	// including the host links at the ends and around each ITB.
	LinkPath []Traversal
	// Lanes is the virtual-channel lane of each LinkPath traversal,
	// in lockstep with LinkPath. nil means the whole route rides lane
	// 0 (every lane-less engine); when non-nil its length must equal
	// len(LinkPath).
	Lanes []uint8
	// header and headerErr are the encoded wire header, computed once
	// when a Table assembles the route.
	header    []byte
	headerErr error
}

// Traversal is one directed use of a link.
type Traversal struct {
	Link *topology.Link
	From topology.NodeID
}

// To returns the node the traversal arrives at.
func (tr Traversal) To() topology.NodeID { return tr.Link.Other(tr.From) }

// NumITBs returns how many in-transit buffers the route uses.
func (r *Route) NumITBs() int { return len(r.ITBHosts) }

// SwitchCrossings returns the number of switch traversals, counting
// repeats (the metric the paper equalises between compared paths).
func (r *Route) SwitchCrossings() int { return len(r.SwitchPath) }

// PortTypeMix counts traversed switch ports by type, counting both the
// input and output port of every switch crossing, since per the paper
// the latency through a switch depends on the type of traversed ports.
func (r *Route) PortTypeMix() (san, lan int) {
	for _, tr := range r.LinkPath {
		if tr.Link.Type == topology.SAN {
			san++
		} else {
			lan++
		}
	}
	return san, lan
}

// EncodeHeader returns the wire route bytes for the packet header:
// the first segment's port bytes, then for each further segment an
// ITB tag, the remaining length, and the segment's bytes (Figure 3.b).
// A route built by a Table returns the header it encoded at build
// time, shared by every caller: the slice is read-only, so copy it
// into the packet rather than handing it over.
func (r *Route) EncodeHeader() ([]byte, error) {
	if r.header != nil || r.headerErr != nil {
		return r.header, r.headerErr
	}
	return packet.BuildITBRoute(r.Segments)
}

// String renders the route compactly for traces and the mapper tool.
func (r *Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d->%d:", r.Src, r.Dst)
	for i, seg := range r.Segments {
		if i > 0 {
			fmt.Fprintf(&b, " |ITB@%d|", r.ITBHosts[i-1])
		}
		fmt.Fprintf(&b, " %v", seg)
	}
	fmt.Fprintf(&b, " (switches=%d itbs=%d)", r.SwitchCrossings(), r.NumITBs())
	return b.String()
}

// Validate checks internal consistency: segments non-empty, segment
// boundaries coincide with ITB hosts' switches, link path matches the
// switch path, and every segment independently obeys up*/down* under
// the supplied orientation (nil to skip the orientation check).
func (r *Route) Validate(t *topology.Topology, ud *topology.UpDown) error {
	if len(r.Segments) == 0 {
		return fmt.Errorf("routing: route %d->%d has no segments", r.Src, r.Dst)
	}
	if len(r.ITBHosts) != len(r.Segments)-1 {
		return fmt.Errorf("routing: %d segments but %d ITB hosts", len(r.Segments), len(r.ITBHosts))
	}
	for i, seg := range r.Segments {
		if len(seg) == 0 {
			return fmt.Errorf("routing: empty segment %d", i)
		}
	}
	if r.Lanes != nil && len(r.Lanes) != len(r.LinkPath) {
		return fmt.Errorf("routing: %d lane entries for %d link traversals", len(r.Lanes), len(r.LinkPath))
	}
	if ud == nil {
		return nil
	}
	// Walk the link path segment by segment; at each ejection the
	// direction history resets — that is the whole point of ITBs. A
	// lane change also resets it: each lane's sub-segments must be
	// legal independently (the per-lane LASH argument), but crossing
	// onto a fresh lane starts a fresh dependency chain.
	var prev *topology.Direction
	itbIdx := 0
	prevLane := uint8(0)
	for k, tr := range r.LinkPath {
		if r.Lanes != nil && r.Lanes[k] != prevLane {
			prevLane = r.Lanes[k]
			prev = nil
		}
		to := tr.To()
		if t.Node(to).Kind == topology.KindHost && to != r.Dst {
			// Ejection into an in-transit host.
			if itbIdx >= len(r.ITBHosts) || r.ITBHosts[itbIdx] != to {
				return fmt.Errorf("routing: unexpected ejection at host %d", to)
			}
			itbIdx++
			prev = nil
			prevLane = 0
			continue
		}
		if !ud.IsSwitchLink(tr.Link) {
			continue // host link at either end
		}
		dir := ud.DirectionOf(tr.Link, tr.From)
		if !topology.LegalTransition(prev, dir) {
			return fmt.Errorf("routing: illegal down->up transition at link %d (route %s)", tr.Link.ID, r)
		}
		d := dir
		prev = &d
	}
	if itbIdx != len(r.ITBHosts) {
		return fmt.Errorf("routing: link path visits %d ITBs, route declares %d", itbIdx, len(r.ITBHosts))
	}
	return nil
}
