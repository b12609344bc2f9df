// Command perfbench is the repository benchmark. It runs one workload
// of the simulator for a fixed host time, checks the simulated outputs,
// and prints every metric by name with its unit; the last line of its
// standard output is one JSON object with the result.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing, profiling and the metrics registry off. With --trace 1 it
// runs the workload untraced and then traced (spans, metrics registry,
// CPU profile) and reports the per-layer metrics. The full result,
// and with --trace 1 the spans and the metrics snapshot, are written
// under .bench_out. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	w       workloadDef
	seed    int64
	seconds int
	trace   int // 0 or 1
}

// outDir is where the full result and the trace are written, relative
// to the directory the benchmark runs in.
const outDir = ".bench_out"

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		return config{}, fmt.Errorf("unknown workload %q (valid: %s)", *name, workloadNames())
	case *seconds < 1:
		return config{}, fmt.Errorf("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return config{}, fmt.Errorf("--trace must be 0 or 1")
	}
	return config{w: w, seed: *seed, seconds: *seconds, trace: *trace}, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " ")
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// Cells run one at a time, on no more threads than the machine has.
	runner.SetWorkers(1)
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	// Rounds run every cell of the workload until the time is up. The
	// first round warms caches and the heap and is counted like the
	// others; it is also the reference every later round's simulated
	// results must equal, traced or not.
	budget := time.Duration(cfg.seconds) * time.Second
	begin := time.Now()
	untracedBudget := budget
	if cfg.trace == 1 {
		untracedBudget = budget / 2
	}
	var untraced, traced []*pass
	for len(untraced) < minRounds || time.Since(begin) < untracedBudget {
		untraced = append(untraced, round(cfg.w, cfg.seed, false))
	}
	var profile bytes.Buffer
	if cfg.trace == 1 {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			fmt.Fprintln(stderr, "perfbench: cpu profile:", err)
			return 1
		}
		for len(traced) < minTracedRounds || time.Since(begin) < budget {
			p := round(cfg.w, cfg.seed, true)
			p.ledger = ledger(p)
			// Only the last traced round's spans and snapshot are
			// written out; the earlier ones are released as soon as
			// their ledger is taken, so memory does not grow with the
			// number of rounds.
			if n := len(traced); n > 0 {
				traced[n-1].release()
			}
			traced = append(traced, p)
		}
		pprof.StopCPUProfile()
	}

	res := newResult(cfg, untraced, traced)
	if cfg.trace == 1 {
		shares, samples, err := cpuShares(profile.Bytes())
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res.addPerLayer(untraced, traced, shares, samples)
	}
	res.writeTable(stdout)
	if err := res.writeFile(cfg, traced); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res.summary(cfg.trace == 1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// minRounds and minTracedRounds bound the rounds of a run from below
// when one round outlasts the time asked for.
const (
	minRounds       = 3
	minTracedRounds = 2
)

// round runs every cell of w once.
func round(w workloadDef, seed int64, traced bool) *pass {
	p := newPass(traced)
	w.run(p, seed)
	return p
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// result is everything one invocation reports.
type result struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Seed       int64             `json:"seed"`
	Env        map[string]string `json:"env"`
	Rounds     map[string]int    `json:"rounds"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	CPUSamples int64             `json:"cpu_samples,omitempty"`
}

// hostMetrics are the end-to-end metrics every workload reports in its
// last line with --trace 0.
var hostMetrics = []string{"wall_s", "setup_s", "alloc_mib", "peak_rss_mib"}

// simUnits are the units of the simulated end-to-end metrics, reported
// on the workloads they apply to.
var simUnits = map[string]string{
	"sim_goodput":         "link_frac",
	"sim_loss_frac":       "ratio",
	"sim_fct_p50_us":      "us",
	"sim_fct_p99_us":      "us",
	"sim_collective_us":   "us",
	"sim_mcp_overhead_ns": "ns",
	"sim_itb_hop_ns":      "ns",
	"sim_detect_us":       "us",
}

func newResult(cfg config, untraced, traced []*pass) *result {
	r := &result{
		Workload: cfg.w.name, Why: cfg.w.why, Seed: cfg.seed, Env: environment(),
		Rounds:   map[string]int{"untraced": len(untraced), "traced": len(traced)},
		EndToEnd: map[string]metric{},
	}
	ref := untraced[0]
	// Every round's cells count. A round whose simulated results differ
	// from the reference fails all its cells: sim_* must repeat
	// exactly, traced or not.
	for _, p := range append(append([]*pass(nil), untraced...), traced...) {
		r.Attempted += len(p.runs)
		r.Failed += p.failed
		r.Failures = append(r.Failures, p.failures...)
		if diff := simDiff(ref, p); diff != "" {
			r.Failed += len(p.runs) - p.failed
			r.Failures = append(r.Failures, "simulated results not repeatable: "+diff)
		}
	}
	if len(r.Failures) > 10 {
		r.Failures = append(r.Failures[:10], fmt.Sprintf("... %d more", len(r.Failures)-10))
	}

	note := fmt.Sprintf("sum over %d cells of each cell's median over %d rounds", len(ref.runs), len(untraced))
	r.EndToEnd["wall_s"] = metric{cellMedians(untraced, func(c cellRun) float64 { return c.wall.Seconds() }), "s", note}
	r.EndToEnd["setup_s"] = metric{cellMedians(untraced, func(c cellRun) float64 { return c.setup.Seconds() }), "s", note}
	r.EndToEnd["alloc_mib"] = metric{cellMedians(untraced, func(c cellRun) float64 { return c.allocBytes / (1 << 20) }), "MiB", note}
	r.EndToEnd["peak_rss_mib"] = metric{peakRSSMiB(), "MiB", "process peak resident set"}
	r.EndToEnd["failed_frac"] = metric{float64(r.Failed) / float64(max(r.Attempted, 1)), "ratio",
		fmt.Sprintf("%d of %d cells", r.Failed, r.Attempted)}
	for name, v := range ref.sim {
		m := metric{Value: v, Unit: simUnits[name]}
		if k := ref.simN[name]; k > 0 {
			m.Note = fmt.Sprintf("n=%d", k)
		}
		switch name {
		case "sim_mcp_overhead_ns":
			m.Note += fmt.Sprintf(", paper ~%d ns, error %+.1f%%", paperMCPns, 100*(v-paperMCPns)/paperMCPns)
		case "sim_itb_hop_ns":
			m.Note += fmt.Sprintf(", paper ~%d ns, error %+.1f%%", paperITBns, 100*(v-paperITBns)/paperITBns)
		}
		r.EndToEnd[name] = m
	}
	return r
}

// cellMedians sums over a workload's cells the median over rounds of
// f: the median takes out the host's round-to-round noise cell by cell,
// and the sum is the cost of the whole workload.
func cellMedians(rounds []*pass, f func(cellRun) float64) float64 {
	var sum float64
	for c := range rounds[0].runs {
		xs := make([]float64, len(rounds))
		for i, p := range rounds {
			xs[i] = f(p.runs[c])
		}
		sum += median(xs)
	}
	return sum
}

// simDiff names the first simulated metric on which b differs from a.
func simDiff(a, b *pass) string {
	names := map[string]bool{}
	for k := range a.sim {
		names[k] = true
	}
	for k := range b.sim {
		names[k] = true
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		va, oka := a.sim[k]
		vb, okb := b.sim[k]
		if oka != okb || va != vb {
			return fmt.Sprintf("%s %v vs %v", k, va, vb)
		}
	}
	return ""
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// environment records what a result depends on besides the code.
func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value
			}
		}
	}
	return env
}

// writeTable prints the result for a reader.
func (r *result) writeTable(w io.Writer) {
	keys := make([]string, 0, len(r.Env))
	for k := range r.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "perfbench %s seed=%d", r.Workload, r.Seed)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%s", k, r.Env[k])
	}
	fmt.Fprintf(w, " rounds: %d untraced, %d traced\n", r.Rounds["untraced"], r.Rounds["traced"])
	section := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "%s\n", title)
		for _, k := range names {
			m := ms[k]
			fmt.Fprintf(w, "  %-24s %16.6g %-10s %s\n", k, m.Value, m.Unit, m.Note)
		}
	}
	section("end-to-end:", r.EndToEnd)
	if r.PerLayer != nil {
		section(fmt.Sprintf("per-layer (traced, %d CPU samples):", r.CPUSamples), r.PerLayer)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
}

// summary is the last line of standard output.
func (r *result) summary(traced bool) map[string]any {
	ms := map[string]any{}
	if traced {
		for _, name := range perLayerNames() {
			m := r.PerLayer[name]
			ms[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	} else {
		for _, name := range hostMetrics {
			m := r.EndToEnd[name]
			ms[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	return map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   ms,
	}
}

// maxSpansWritten caps the spans written per run; per-message gm spans
// of a loaded cell run to hundreds of thousands. Totals cover them all.
const maxSpansWritten = 20000

// writeFile writes the full result, and for a traced run the last
// traced round's spans with their self times, the span totals and the
// metrics snapshot.
func (r *result) writeFile(cfg config, traced []*pass) error {
	doc := map[string]any{"result": r}
	if len(traced) > 0 {
		last := traced[len(traced)-1]
		spans := last.tr.spans
		for i, self := range selfTimes(spans) {
			spans[i].Self = self
		}
		doc["span_totals"] = spanTotals(spans)
		doc["spans_recorded"] = len(spans)
		if len(spans) > maxSpansWritten {
			spans = spans[:maxSpansWritten]
		}
		doc["spans"] = spans
		doc["metrics_snapshot"] = last.reg.Snapshot()
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.w.name, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
}
