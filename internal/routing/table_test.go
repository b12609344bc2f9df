package routing

import (
	"runtime"
	"testing"

	"repro/internal/topology"
)

// lookupWalk returns the routes a Lookup walk over every ordered host
// pair finds, in (source, destination) host id order.
func lookupWalk(tp *topology.Topology, tbl *Table) []*Route {
	var out []*Route
	hosts := tp.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if r, ok := tbl.Lookup(src, dst); ok {
				out = append(out, r)
			}
		}
	}
	return out
}

// TestRoutesInPairOrder pins the Routes contract: exactly the routes a
// (source, destination) Lookup walk returns, in that order, on eager,
// avoiding and lazily rebuilt tables.
func TestRoutesInPairOrder(t *testing.T) {
	tp, err := topology.Generate(topology.DefaultGenConfig(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	ud := topology.BuildUpDown(tp)
	hosts := tp.Hosts()
	avoid := AvoidLinks(0, 5).AddHost(hosts[3])
	eager, err := BuildTable(tp, ud, ITBRouting)
	if err != nil {
		t.Fatal(err)
	}
	avoiding, err := BuildTableAvoiding(tp, ud, ITBRouting, avoid)
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range map[string]*Table{
		"eager":    eager,
		"avoiding": avoiding,
		"lazy":     RebuildAvoidingLazy(eager, tp, ud, ITBRouting, avoid, nil),
	} {
		got := tbl.Routes()
		want := lookupWalk(tp, tbl)
		if len(got) != len(want) {
			t.Fatalf("%s: Routes() has %d routes, the Lookup walk %d", name, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("%s: Routes()[%d] is %d->%d, the Lookup walk has %d->%d",
					name, k, got[k].Src, got[k].Dst, want[k].Src, want[k].Dst)
			}
		}
	}
}

// TestLenExcludesMemoizedFailures checks that a lazy table's count of
// routes ignores the pairs it memoized as unroutable, both before and
// after materialization.
func TestLenExcludesMemoizedFailures(t *testing.T) {
	tp, f := topology.Figure1()
	ud := topology.BuildUpDown(tp)
	base, err := BuildTable(tp, ud, ITBRouting)
	if err != nil {
		t.Fatal(err)
	}
	dead := f.Hosts[6]
	avoid := AvoidLinks().AddHost(dead)
	eager, _, err := RebuildAvoiding(base, tp, ud, ITBRouting, avoid)
	if err != nil {
		t.Fatal(err)
	}
	lazy := RebuildAvoidingLazy(base, tp, ud, ITBRouting, avoid, nil)
	src := f.Hosts[0]
	resolved := 0
	for _, dst := range tp.Hosts() {
		if _, ok := lazy.Lookup(src, dst); ok {
			resolved++
		} else if !lazy.memoizedFailure(src, dst) {
			t.Fatalf("pair %d->%d: miss not memoized", src, dst)
		}
	}
	// The source's row holds its own pair and the dead host as failures.
	if !lazy.memoizedFailure(src, dead) || !lazy.memoizedFailure(src, src) {
		t.Fatal("dead destination and self pair not memoized as failures")
	}
	if lazy.count != resolved {
		t.Errorf("count = %d after resolving %d routes and 2 failures", lazy.count, resolved)
	}
	if lazy.Len() != eager.Len() {
		t.Errorf("materialized Len = %d, eager %d", lazy.Len(), eager.Len())
	}
	if got := len(lazy.Routes()); got != lazy.Len() {
		t.Errorf("Routes() has %d entries, Len %d", got, lazy.Len())
	}
}

// TestLazyTableAllocatesPerSource bounds what a lazy table costs on a
// 1024-host topology when traffic resolves a single source: one route
// row, not a hosts² route store.
func TestLazyTableAllocatesPerSource(t *testing.T) {
	tp, err := topology.FatTree(topology.DefaultFatTreeConfig(1024))
	if err != nil {
		t.Fatal(err)
	}
	ud := topology.BuildUpDown(tp)
	hosts := tp.Hosts()
	n := len(hosts)
	if n < 1024 {
		t.Fatalf("fat tree has %d hosts, want at least 1024", n)
	}
	resolveOne := func() {
		tbl := RebuildAvoidingLazy(nil, tp, ud, ITBRouting, nil, nil)
		for _, dst := range hosts {
			tbl.Lookup(hosts[0], dst)
		}
	}
	resolveOne() // warm the topology caches and the search scratch pool

	// Each route costs a handful of allocations; a per-pair store for
	// the whole table would add at least one per host pair.
	if allocs := testing.AllocsPerRun(3, resolveOne); allocs > float64(8*n) {
		t.Errorf("resolving one source allocates %.0f times, want at most %d", allocs, 8*n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resolveOne()
	runtime.ReadMemStats(&after)
	// hosts² route pointers alone would be 8·n² bytes (8 MiB here).
	bytes := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(1024 * n); bytes > limit {
		t.Errorf("resolving one source allocates %d bytes, want at most %d (O(hosts))", bytes, limit)
	}
}
