package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/units"
)

// TestCellsReproduceStudies shows that the cells assembled from public
// calls reproduce the studies itbsim runs: the open-loop and allreduce
// cells equal the dragonfly-72 rows of `itbsim -exp load -pattern
// uniform|allreduce -engine updown-itb` at the same seed and window,
// and the ping-pong equals `itbsim -exp fig7` and `-exp fig8` at the
// same sizes and iterations.
func TestCellsReproduceStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the load study cells")
	}
	const seed = 3
	study := func(pattern string, loads []float64) []core.LoadRow {
		cfg := core.DefaultLoadStudyConfig(seed)
		cfg.Presets = []string{"dragonfly-72"}
		cfg.Patterns = []string{pattern}
		cfg.Engines = []string{loadEngine}
		cfg.Loads = loads
		res, err := core.RunLoadStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	for _, tc := range []struct {
		pattern string
		loads   []float64
		cell    func(p *pass, load float64, lat *stats.Summary) (core.LoadRow, int, int, error)
	}{
		{"uniform", openLoopLoads, func(p *pass, load float64, lat *stats.Summary) (core.LoadRow, int, int, error) {
			return p.openLoopCell(seed, load, lat)
		}},
		{"allreduce", allreduceLoads, func(p *pass, load float64, lat *stats.Summary) (core.LoadRow, int, int, error) {
			return p.allreduceCell(seed, load, lat)
		}},
	} {
		want := study(tc.pattern, tc.loads)
		for i, load := range tc.loads {
			var lat stats.Summary
			got, _, _, err := tc.cell(newPass(false), load, &lat)
			if err != nil {
				t.Fatalf("%s load %.1f: %v", tc.pattern, load, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s load %.1f:\n got %+v\nwant %+v", tc.pattern, load, got, want[i])
			}
		}
	}

	sizes := pingSizes(seed)
	fig7, err := core.RunFig7(core.Fig7Config{Sizes: sizes, Iterations: pingIterations, Warmup: pingWarmup})
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := core.RunFig8(core.Fig8Config{Sizes: sizes, Iterations: pingIterations, Warmup: pingWarmup})
	if err != nil {
		t.Fatal(err)
	}
	itb, err := packet.BuildITBRoute([][]byte{{0, 1, 6}, {4, 2}})
	if err != nil {
		t.Fatal(err)
	}
	p := newPass(false)
	cells := [4][]units.Time{}
	for i, c := range []struct {
		v        mcp.Variant
		loopback bool
		fwd      []byte
		typ      packet.Type
	}{
		{mcp.Original, false, nil, packet.TypeGM},
		{mcp.ITB, false, nil, packet.TypeGM},
		{mcp.ITB, true, pingUDForward, packet.TypeGM},
		{mcp.ITB, true, itb, packet.TypeITB},
	} {
		if cells[i], err = p.pingCell(sizes, c.v, c.loopback, c.fwd, c.typ); err != nil {
			t.Fatal(err)
		}
	}
	for i := range sizes {
		r7, r8 := fig7.Rows[i], fig8.Rows[i]
		if cells[0][i] != r7.Original || cells[1][i] != r7.Modified || cells[2][i] != r8.UD || cells[3][i] != r8.UDITB {
			t.Errorf("size %d: ping-pong %v, want fig7 %v/%v fig8 %v/%v",
				sizes[i], cells[i], r7.Original, r7.Modified, r8.UD, r8.UDITB)
		}
	}
	p = newPass(false)
	runPingPong(p, seed)
	ns := float64(units.Nanosecond)
	if got, want := p.sim["sim_mcp_overhead_ns"], float64(fig7.AvgOverhead)/ns; got != want {
		t.Errorf("sim_mcp_overhead_ns %v, want fig7 average %v", got, want)
	}
	if got, want := p.sim["sim_itb_hop_ns"], float64(fig8.AvgOverhead)/ns; got != want {
		t.Errorf("sim_itb_hop_ns %v, want fig8 average %v", got, want)
	}
}

func TestTailResolved(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {20, 50, true}, {19, 50, false},
		{10000, 99.9, true}, {9999, 99.9, false}, {0, 50, false},
	} {
		if got := tailResolved(tc.n, tc.p); got != tc.want {
			t.Errorf("tailResolved(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "cell", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "c", Parent: 0, Start: 60, End: 70},
		{Name: "d", Parent: 1, Start: 15, End: 20},
		{Name: "e", Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	want := []int64{100 - 40 - 10 - 10, 20 - 5, 30, 10, 5, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tot := spanTotals(spans)
	if tot["cell"].SelfNs != 40 || tot["a"].Total != 20 {
		t.Errorf("spanTotals = %+v", tot)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc"}, "runtime_gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/gm.(*Port).Send"}, "runtime_malloc"},
		{[]string{"runtime.mapaccess2", "repro/internal/routing.(*Table).Lookup", "repro/internal/gm.(*Host).Send"}, "routing"},
		{[]string{"repro/internal/sim.(*Engine).siftDown", "repro/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"repro/internal/units.Time.Seconds", "main.run"}, "other"},
		{[]string{"main.run"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestCPUSharesPartition profiles real work and checks that every
// sample lands in exactly one bucket: the shares are all known buckets
// and sum to one.
func TestCPUSharesPartition(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for i := 0; i < 3; i++ {
		runPingPong(newPass(false), int64(i))
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("profile took no samples")
	}
	known := map[string]bool{}
	for _, b := range cpuBuckets {
		known[b] = true
	}
	var sum float64
	for name, s := range shares {
		if !known[name] {
			t.Errorf("share for unknown bucket %q", name)
		}
		sum += s
	}
	if len(shares) != len(cpuBuckets) || sum < 1-1e-9 || sum > 1+1e-9 {
		t.Errorf("%d buckets summing to %v over %d samples, want %d summing to 1", len(shares), sum, samples, len(cpuBuckets))
	}
}

// TestRunReportsEveryMetric runs the command end to end on the
// smallest workload, traced, and checks the last line.
func TestRunReportsEveryMetric(t *testing.T) {
	// The result files go under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "paper-pingpong", "--seed", "2", "--seconds", "1", "--trace", trace}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   bool                      `json:"correct"`
			Attempted int                       `json:"attempted"`
			Failed    int                       `json:"failed"`
			Metrics   map[string]map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		want := hostMetrics
		if trace == "1" {
			want = perLayerNames()
		}
		if !last.Correct || last.Failed != 0 || last.Attempted == 0 || len(last.Metrics) != len(want) {
			t.Fatalf("trace %s: last line %+v\n%s", trace, last, out.String())
		}
		for _, name := range want {
			if _, ok := last.Metrics[name]["value"].(float64); !ok {
				t.Errorf("trace %s: metric %s missing", trace, name)
			}
		}
		if !strings.Contains(out.String(), "sim_mcp_overhead_ns") {
			t.Errorf("trace %s: table lacks the simulated metrics:\n%s", trace, out.String())
		}
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
