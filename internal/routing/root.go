package routing

import (
	"repro/internal/topology"
)

// RootQuality scores an up*/down* orientation: the sum of legal
// shortest-path lengths over all ordered switch pairs (lower is
// better). The root choice matters because a poorly placed root
// lengthens many routes and funnels them through itself.
func RootQuality(t *topology.Topology, ud *topology.UpDown) int {
	sws := t.Switches()
	total := 0
	var s searchScratch
	for _, src := range sws {
		// One BFS over (switch, phase) states per source covers all
		// destinations.
		tr := s.bfsTree(t, ud, src, nil)
		for _, dst := range sws {
			if goal := tr.goal[dst]; goal >= 0 {
				hops, _ := tr.depth(goal)
				total += hops
			}
		}
	}
	return total
}

// BestRoot evaluates every switch as the spanning-tree root and
// returns the one whose orientation yields the lowest total up*/down*
// path length, with the orientation itself. Ties break toward the
// lower switch id (determinism). The stock Myrinet mapper elects a
// root heuristically; evaluating candidates exhaustively is what the
// routing studies of the era did to separate root effects from
// algorithm effects.
func BestRoot(t *topology.Topology) (topology.NodeID, *topology.UpDown) {
	var bestUD *topology.UpDown
	var bestRoot topology.NodeID
	bestScore := -1
	for _, sw := range t.Switches() {
		ud := topology.BuildUpDownFrom(t, sw)
		score := RootQuality(t, ud)
		if bestScore < 0 || score < bestScore {
			bestScore = score
			bestRoot = sw
			bestUD = ud
		}
	}
	return bestRoot, bestUD
}

// WorstRoot is the adversarial counterpart of BestRoot, used by tests
// and the root-sensitivity study.
func WorstRoot(t *topology.Topology) (topology.NodeID, *topology.UpDown) {
	var worstUD *topology.UpDown
	var worstRoot topology.NodeID
	worstScore := -1
	for _, sw := range t.Switches() {
		ud := topology.BuildUpDownFrom(t, sw)
		score := RootQuality(t, ud)
		if score > worstScore {
			worstScore = score
			worstRoot = sw
			worstUD = ud
		}
	}
	return worstRoot, worstUD
}
