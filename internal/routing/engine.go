package routing

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/topology"
)

// Engine is a pluggable route-computation strategy. The paper's
// mechanism — minimal paths legalised with in-transit buffers over the
// stock BFS up*/down* orientation — is one engine among several; the
// interface lets the engine-comparison study swap the whole strategy
// (orientation, search, deadlock argument) per topology class while
// the simulation stack above stays unchanged.
//
// Every engine must deliver the same contract: on a connected
// topology, BuildTable routes every ordered live host pair and the
// resulting route set passes CheckDeadlockFree; BuildCompact produces
// the struct-of-arrays switch-pair form of the same paths for the
// large-topology studies.
type Engine interface {
	// Name is the stable identifier used on the itbsim command line
	// and in study output.
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// Orientation returns the acyclic link orientation the engine's
	// deadlock-freedom argument rests on for this topology.
	Orientation(t *topology.Topology) *topology.UpDown
	// BuildTable computes host-pair routes, omitting pairs with dead
	// endpoints and pairs unreachable under a non-nil exclusion set.
	BuildTable(t *topology.Topology, avoid *Avoid) (*Table, error)
	// RebuildAvoiding is the incremental form: routes of prev that
	// survive the exclusion set are reused, the rest recomputed. A prev
	// of nil or from a different engine degenerates to a full build
	// (returning 0 reused).
	RebuildAvoiding(prev *Table, t *topology.Topology, avoid *Avoid) (*Table, int, error)
	// BuildCompact computes the switch-pair CompactTable.
	BuildCompact(t *topology.Topology, avoid *Avoid) (*CompactTable, error)
	// CheckDeadlockFree is the engine's self-check: it verifies the
	// Dally & Seitz acyclicity of the channel dependency graph induced
	// by a table this engine built.
	CheckDeadlockFree(tbl *Table) error
	// Lanes declares how many virtual-channel lanes per link direction
	// the engine's routes require of the fabric. Engines whose routes
	// never select a lane declare 1 (the faithful Myrinet
	// configuration); the vc engines declare their lane count so the
	// cluster builder can size the fabric to the tables it loads.
	Lanes() int
}

// Engines returns the registered engines in stable (alphabetical by
// name) order: the reference up*/down*+ITB engine and the two
// alternative strategies of the comparison study.
func Engines() []Engine {
	es := []Engine{
		UpDownITBEngine{},
		LayeredEngine{},
		MinimalEscapeEngine{},
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Name() < es[j].Name() })
	return es
}

// EngineNames returns the registered engine names in stable order.
func EngineNames() []string {
	var names []string
	for _, e := range Engines() {
		names = append(names, e.Name())
	}
	return names
}

// vcEngines lists the virtual-channel engines resolvable by name.
// They are deliberately NOT part of Engines(): the default study
// grids iterate the registry, and the vc design points belong to the
// dedicated VC ablation (core.RunVCStudy), not to every registry
// sweep. Name resolution uses the two-lane instances; the ablation
// constructs other lane counts directly.
func vcEngines() []Engine {
	return []Engine{
		VCEscapeEngine{NumLanes: 2},
		VCEscapeEngine{NumLanes: 2, ITBRepair: true},
	}
}

// EngineByName resolves a registered engine, or one of the named
// virtual-channel engines ("vc-escape", "vc-itb").
func EngineByName(name string) (Engine, bool) {
	for _, e := range Engines() {
		if e.Name() == name {
			return e, true
		}
	}
	for _, e := range vcEngines() {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}

// EngineList renders "name — description" lines for CLI help and the
// error path that lists valid engines, covering both the registry and
// the named virtual-channel engines.
func EngineList() string {
	var b strings.Builder
	for _, e := range Engines() {
		fmt.Fprintf(&b, "  %-15s %s\n", e.Name(), e.Description())
	}
	for _, e := range vcEngines() {
		fmt.Fprintf(&b, "  %-15s %s\n", e.Name(), e.Description())
	}
	return b.String()
}

// engineCheckTopology is the shared precondition of every engine: a
// connected topology with at least one switch and every host cabled.
// BuildUpDown and its DFS variant panic on disconnected inputs, so the
// engines turn that into an error callers can report (the itbsim
// error path depends on this).
func engineCheckTopology(name string, t *topology.Topology) error {
	if t == nil || len(t.Switches()) == 0 {
		return fmt.Errorf("routing: engine %q: topology has no switches", name)
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("routing: engine %q cannot route this topology: %w", name, err)
	}
	return nil
}

// pathFunc computes the switch path for one switch pair; engines
// install one into the Tables they build. Besides the traversals it
// returns the in-transit reset positions (indices into the traversal
// before which an ejection/re-injection happens) and, for lane-aware
// engines, the virtual-channel lane of every traversal (nil means
// everything rides lane 0).
type pathFunc func(srcSw, dstSw topology.NodeID) ([]Traversal, []int, []uint8, error)

// buildEngineTable runs the standard all-pairs table build with an
// engine-specific path function (nil selects the legacy Algorithm
// searches). With a nil avoid every pair must route; with an exclusion
// set, pairs with dead endpoints or no surviving path are omitted,
// matching BuildTableAvoiding.
func buildEngineTable(t *topology.Topology, ud *topology.UpDown, alg Algorithm, avoid *Avoid, engine string, fn pathFunc) (*Table, error) {
	hosts := t.Hosts()
	tbl := newTable(alg, avoid, engine, fn, len(hosts)*len(hosts))
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
				if avoid != nil {
					continue // unreachable under the exclusion set
				}
				return nil, fmt.Errorf("routing: engine %q: %w", engine, err)
			}
			tbl.routes[[2]topology.NodeID{src, dst}] = r
		}
	}
	tbl.release()
	return tbl, nil
}

// rebuildEngineTable mirrors RebuildAvoiding for engine-built tables:
// surviving routes of prev are shared into the new table and only the
// invalidated pairs go through the engine's path function again.
func rebuildEngineTable(prev *Table, t *topology.Topology, ud *topology.UpDown, alg Algorithm, avoid *Avoid, engine string, fn pathFunc) (*Table, int, error) {
	if prev == nil || prev.engine != engine || prev.Algorithm != alg {
		tbl, err := buildEngineTable(t, ud, alg, avoid, engine, fn)
		return tbl, 0, err
	}
	hosts := t.Hosts()
	tbl := newTable(alg, avoid, engine, fn, len(hosts)*len(hosts))
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
			continue // unreachable under the exclusion set: omit
		}
		tbl.routes[[2]topology.NodeID{p.src, p.dst}] = r
	}
	tbl.release()
	return tbl, reused, nil
}
