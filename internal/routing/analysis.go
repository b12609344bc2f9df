package routing

import (
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/topology"
)

// Analysis summarises a route table's structural properties — the
// three factors the paper identifies as limiting up*/down* performance
// (non-minimal routing, unbalanced traffic, contention exposure) show
// up directly in these numbers.
type Analysis struct {
	Routes int
	// AvgLinkHops is the mean number of switch-switch link traversals
	// per route (path length).
	AvgLinkHops float64
	// MaxLinkHops is the longest route.
	MaxLinkHops int
	// MinimalFraction is the fraction of routes whose length equals
	// the topological minimum for their host pair.
	MinimalFraction float64
	// AvgITBs is the mean in-transit buffer count per route.
	AvgITBs float64
	// MaxITBs is the largest in-transit buffer count on any route.
	MaxITBs int
	// LinkLoadCV is the coefficient of variation of per-channel route
	// counts over switch-switch channels: higher means more unbalanced
	// traffic (up*/down* concentrates routes near the root).
	LinkLoadCV float64
	// MaxChannelLoad is the highest number of routes crossing any
	// single switch-switch channel.
	MaxChannelLoad int
	// RootFraction is the fraction of routes that traverse the
	// spanning-tree root switch.
	RootFraction float64
}

// Analyze computes route-set metrics against the topology and the
// orientation used to build the table.
func Analyze(t *topology.Topology, ud *topology.UpDown, tbl *Table) Analysis {
	var a Analysis
	hosts := t.Hosts()
	loads := make(map[Channel]int)
	totalHops, totalITBs := 0, 0
	minimalCount := 0
	// Minimal hop counts come from one unrestricted BFS per source
	// switch.
	var s searchScratch
	plain := make([]*srcTree, t.NumNodes())
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			r, ok := tbl.Lookup(src, dst)
			if !ok {
				continue
			}
			a.Routes++
			hops := 0
			crossesRoot := false
			for _, tr := range r.LinkPath {
				if t.Node(tr.From).Kind != topology.KindSwitch ||
					t.Node(tr.To()).Kind != topology.KindSwitch {
					continue
				}
				hops++
				loads[Channel{LinkID: tr.Link.ID, From: tr.From}]++
				if tr.From == ud.Root || tr.To() == ud.Root {
					crossesRoot = true
				}
			}
			totalHops += hops
			if hops > a.MaxLinkHops {
				a.MaxLinkHops = hops
			}
			totalITBs += r.NumITBs()
			if r.NumITBs() > a.MaxITBs {
				a.MaxITBs = r.NumITBs()
			}
			if crossesRoot {
				a.RootFraction++
			}
			srcSw, _ := t.SwitchOf(src)
			dstSw, _ := t.SwitchOf(dst)
			if plain[srcSw] == nil {
				plain[srcSw] = s.bfsTree(t, nil, srcSw, nil)
			}
			if goal := plain[srcSw].goal[dstSw]; goal >= 0 {
				if minHops, _ := plain[srcSw].depth(goal); hops == minHops {
					minimalCount++
				}
			}
		}
	}
	if a.Routes == 0 {
		return a
	}
	a.AvgLinkHops = float64(totalHops) / float64(a.Routes)
	a.AvgITBs = float64(totalITBs) / float64(a.Routes)
	a.MinimalFraction = float64(minimalCount) / float64(a.Routes)
	a.RootFraction /= float64(a.Routes)

	// Load balance over all switch-switch channels (including unused
	// ones, which count as zero load).
	var chans []Channel
	for i := range t.Links() {
		l := t.Link(i)
		if t.Node(l.A).Kind == topology.KindSwitch && t.Node(l.B).Kind == topology.KindSwitch {
			chans = append(chans, Channel{LinkID: l.ID, From: l.A}, Channel{LinkID: l.ID, From: l.B})
		}
	}
	if len(chans) > 0 {
		sum := 0.0
		for _, c := range chans {
			load := loads[c]
			sum += float64(load)
			if load > a.MaxChannelLoad {
				a.MaxChannelLoad = load
			}
		}
		mean := sum / float64(len(chans))
		if mean > 0 {
			varSum := 0.0
			for _, c := range chans {
				d := float64(loads[c]) - mean
				varSum += d * d
			}
			a.LinkLoadCV = math.Sqrt(varSum/float64(len(chans))) / mean
		}
	}
	return a
}

// ChannelLoads returns per-channel route counts sorted descending,
// for reporting hot links.
func ChannelLoads(t *topology.Topology, tbl *Table) []ChannelLoad {
	loads := make(map[Channel]int)
	for _, r := range tbl.Routes() {
		for _, tr := range r.LinkPath {
			if t.Node(tr.From).Kind != topology.KindSwitch ||
				t.Node(tr.To()).Kind != topology.KindSwitch {
				continue
			}
			loads[Channel{LinkID: tr.Link.ID, From: tr.From}]++
		}
	}
	out := make([]ChannelLoad, 0, len(loads))
	for c, n := range loads {
		out = append(out, ChannelLoad{Channel: c, Routes: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Routes != out[j].Routes {
			return out[i].Routes > out[j].Routes
		}
		if out[i].Channel.LinkID != out[j].Channel.LinkID {
			return out[i].Channel.LinkID < out[j].Channel.LinkID
		}
		return out[i].Channel.From < out[j].Channel.From
	})
	return out
}

// ChannelLoad pairs a channel with the number of routes crossing it.
type ChannelLoad struct {
	Channel Channel
	Routes  int
}

// Publish exports the analysis into a metrics registry under
// routing.*. Nil registries are ignored.
func (a Analysis) Publish(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.Gauge("routing.routes").Set(float64(a.Routes))
	r.Gauge("routing.avg_link_hops").Set(a.AvgLinkHops)
	r.Gauge("routing.max_link_hops").Set(float64(a.MaxLinkHops))
	r.Gauge("routing.minimal_fraction").Set(a.MinimalFraction)
	r.Gauge("routing.avg_itbs").Set(a.AvgITBs)
	r.Gauge("routing.max_itbs").Set(float64(a.MaxITBs))
	r.Gauge("routing.link_load_cv").Set(a.LinkLoadCV)
	r.Gauge("routing.max_channel_load").Set(float64(a.MaxChannelLoad))
	r.Gauge("routing.root_fraction").Set(a.RootFraction)
}
