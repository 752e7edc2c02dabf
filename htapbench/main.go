// Command htapbench is s2db's end-to-end benchmark. It runs one of three
// workloads in a single process against a database opened with s2db.Open,
// checks the program's outputs against computations made apart from the
// engine, and prints one JSON result line. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// params are the settings of one round.
type params struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// sf is the TPC-H scale factor of the tpch workload.
	sf float64
	// reference is the file holding the tpch reference results; when it
	// is empty the round computes them itself.
	reference string
}

// outcome is what one round measured and checked.
type outcome struct {
	m                 map[string]float64
	attempted, failed int64
	// violations are failed output checks outside the counted operations;
	// any makes the run incorrect.
	violations []string
	// notes describe counted failures and known faults the round showed.
	notes []string
	recs  []*recorder
}

func newOutcome() *outcome { return &outcome{m: map[string]float64{}} }

// spanMetrics are the per-call timings taken from TPC-C client spans.
var spanMetrics = []string{"cluster.get", "cluster.update", "cluster.insert", "cluster.delete", "exec.scan_eq"}

// finishTrace derives the span-based metrics of a traced round: mean time
// and count per call, and the tracing overhead estimated from the measured
// cost of one span.
func (o *outcome) finishTrace(p params, recs []*recorder, window time.Duration, clients int) {
	if !p.trace {
		return
	}
	stats := summarize(recs)
	for _, name := range spanMetrics {
		if st := stats[name]; st != nil {
			o.m[name+"_us"] = float64(st.TotalNs) / float64(st.Calls) / 1e3
			o.m[name+"_calls"] = float64(st.Calls)
		}
	}
	if st := stats["exec.scan_eq"]; st != nil {
		o.m["exec.scan_eq_rows"] = float64(st.Rows)
	}
	n := spanCount(recs)
	cost := spanCostNs()
	o.m["trace.spans"] = float64(n)
	o.m["trace.span_ns"] = cost
	o.m["trace.overhead_pct"] = 100 * float64(n) * cost / (float64(window.Nanoseconds()) * float64(clients))
	o.recs = recs
}

var workloads = map[string]func(params) (*outcome, error){
	"tpcc": runTPCCWorkload,
	"tpch": runTPCHWorkload,
	"htap": runHTAPWorkload,
}

// rounds is how many rounds each workload's run is made of. Each round
// sets up a fresh database in a process of its own and measures it for
// its share of the window; a run reports the median over its rounds. The
// rounds are separate processes because the engine seeds its hash
// functions per process, so the figures of one process move together and
// only separate processes average that out. tpch runs fewer, longer rounds
// so that each times three passes or more: its per-query medians come
// from the passes.
var rounds = map[string]int{"tpcc": 5, "tpch": 3, "htap": 5}

// defaultSF is the tpch workload's TPC-H scale factor: the smallest at
// which background merges rewrite the loaded segments.
const defaultSF = 0.05

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("htapbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: tpcc, tpch or htap")
	seed := fs.Int64("seed", 1, "seed of the workload's data and clients")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds, shared by the rounds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	root := fs.String("root", ".", "repository root, holding BENCHMARK.json; results go to .bench_out/ under it")
	compare := fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	roundNo := fs.Int("round", 0, "run round n of a run and print its raw result (used by the run itself)")
	roundMs := fs.Int("round-ms", 0, "window of the round in milliseconds (with --round)")
	reference := fs.String("reference", "", "tpch reference results file (with --round)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dir := filepath.Join(*root, ".bench_out")
	fn, ok := workloads[*workload]
	if *roundNo > 0 {
		if !ok || *roundMs < 1 {
			fmt.Fprintln(stderr, "htapbench: --round needs --workload and --round-ms")
			return 2
		}
		p := params{workload: *workload, seed: *seed, window: time.Duration(*roundMs) * time.Millisecond,
			trace: *trace == 1, sf: defaultSF, reference: *reference}
		return runRound(p, fn, *roundNo, dir, stdout, stderr)
	}
	spec, err := readSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "htapbench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "htapbench: --compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, spec, fs.Arg(0), fs.Arg(1))
	}
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "htapbench: need --workload tpcc|tpch|htap, --seconds >= 1 and --trace 0|1")
		return 2
	}
	p := params{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, sf: defaultSF}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "htapbench:", err)
		return 1
	}
	out, stats, err := runRounds(p, rounds[p.workload], dir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "htapbench: %s: %v\n", *workload, err)
		return 1
	}
	rep := newReport(p, *seconds, out, spec, *root)
	line, err := rep.resultLine(spec, p.trace)
	if err != nil {
		fmt.Fprintln(stderr, "htapbench:", err)
		return 1
	}
	var summary strings.Builder
	if p.trace {
		writeSummary(&summary, p.workload, stats, p.window, out.m)
	}
	if err := rep.save(dir, summary.String()); err != nil {
		fmt.Fprintln(stderr, "htapbench:", err)
		return 1
	}
	for _, v := range out.violations {
		fmt.Fprintln(stdout, "check failed:", v)
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	fmt.Fprint(stdout, summary.String())
	host, _ := json.Marshal(rep.Host)
	fmt.Fprintf(stdout, "host: %s\n", host)
	fmt.Fprintf(stdout, "full result: %s\n", rep.path(dir))
	fmt.Fprintln(stdout, string(line))
	return 0
}

// roundResult is what a round's process prints for the run to combine.
type roundResult struct {
	Metrics    map[string]float64   `json:"metrics"`
	Attempted  int64                `json:"attempted"`
	Failed     int64                `json:"failed"`
	Violations []string             `json:"violations"`
	Notes      []string             `json:"notes"`
	Spans      map[string]*spanStat `json:"spans,omitempty"`
}

// runRound runs one round in this process and prints its roundResult. A
// traced round also writes its spans.
func runRound(p params, fn func(params) (*outcome, error), n int, dir string, stdout, stderr io.Writer) int {
	out, err := fn(p)
	if err != nil {
		fmt.Fprintf(stderr, "htapbench: %s round %d: %v\n", p.workload, n, err)
		return 1
	}
	res := roundResult{Metrics: out.m, Attempted: out.attempted, Failed: out.failed,
		Violations: out.violations, Notes: out.notes}
	if p.trace {
		res.Spans = summarize(out.recs)
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace1-round%d.spans.jsonl.gz", p.workload, p.seed, n))
		if err := writeSpans(path, out.recs); err != nil {
			fmt.Fprintln(stderr, "htapbench:", err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "htapbench:", err)
		return 1
	}
	return 0
}

// runRounds runs n rounds, one process each, one after another, and
// combines them: every metric is the median over the rounds, operations
// and failures add up, and span statistics merge.
func runRounds(p params, n int, dir string, stderr io.Writer) (*outcome, map[string]*spanStat, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if p.trace {
		trace = "1"
	}
	args := []string{"-workload", p.workload, "-seed", fmt.Sprint(p.seed), "-trace", trace,
		"-round-ms", fmt.Sprint((p.window / time.Duration(n)).Milliseconds())}
	if p.workload == "tpch" {
		ref := filepath.Join(dir, "tpch.reference.gob")
		if err := writeReference(ref, p.sf); err != nil {
			return nil, nil, fmt.Errorf("reference: %w", err)
		}
		args = append(args, "-reference", ref)
	}
	out := newOutcome()
	values := map[string][]float64{}
	stats := map[string]*spanStat{}
	for i := 1; i <= n; i++ {
		cmd := exec.Command(exe, append([]string{"-root", filepath.Dir(dir), "-round", fmt.Sprint(i)}, args...)...)
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, stderr
		if err := cmd.Run(); err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", i, err)
		}
		var res roundResult
		if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", i, err)
		}
		for k, v := range res.Metrics {
			values[k] = append(values[k], v)
		}
		out.attempted += res.Attempted
		out.failed += res.Failed
		for _, v := range res.Violations {
			out.violations = append(out.violations, fmt.Sprintf("round %d: %s", i, v))
		}
		for _, v := range res.Notes {
			out.notes = append(out.notes, fmt.Sprintf("round %d: %s", i, v))
		}
		for name, st := range res.Spans {
			if stats[name] == nil {
				stats[name] = &spanStat{}
			}
			stats[name].add(st)
		}
	}
	for k, vs := range values {
		out.m[k] = median(vs)
	}
	return out, stats, nil
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) find(name string) (metricSpec, bool) {
	for _, l := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range l {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host records where a result was measured.
type host struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OSArch     string  `json:"os_arch"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	DataSeed   int64   `json:"data_seed"`
	ClientSeed []int64 `json:"client_seeds"`
}

// report is the full result of a run, written to .bench_out/.
type report struct {
	Workload   string                 `json:"workload"`
	Seconds    int                    `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Host       host                   `json:"host"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Violations []string               `json:"violations"`
	Notes      []string               `json:"notes"`
	Metrics    map[string]metricValue `json:"metrics"`
}

func newReport(p params, seconds int, out *outcome, spec *benchSpec, root string) *report {
	r := &report{
		Workload: p.workload, Seconds: seconds, Trace: p.trace,
		Host: host{
			Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: gitCommit(root),
			Seed: p.seed, DataSeed: dataSeed(p), ClientSeed: clientSeeds(p),
		},
		Correct: len(out.violations) == 0, Attempted: out.attempted, Failed: out.failed,
		Violations: out.violations, Notes: out.notes,
		Metrics: map[string]metricValue{},
	}
	for name, v := range out.m {
		ms, _ := spec.find(name)
		r.Metrics[name] = metricValue{v, ms.Unit}
	}
	return r
}

// dataSeed is the seed of the run's data generator.
func dataSeed(p params) int64 {
	if p.workload == "tpch" {
		return tpchDataSeed
	}
	return p.seed
}

// clientSeeds lists the seeds of the run's client random streams: one per
// TPC-C client. The TPC-H and CH clients run fixed query sequences.
func clientSeeds(p params) []int64 {
	n := 0
	switch p.workload {
	case "tpcc":
		n = tpccClients()
	case "htap":
		n = 1
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = p.seed*1000 + int64(i)
	}
	return seeds
}

// resultLine renders the last line of output: every end-to-end metric of
// BENCHMARK.json for an untraced run, every per-layer metric for a traced
// one. A per-layer metric the workload does not exercise reads 0.
func (r *report) resultLine(spec *benchSpec, traced bool) ([]byte, error) {
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	metrics := map[string]metricValue{}
	for _, ms := range list {
		v, ok := r.Metrics[ms.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload %s measured no %s", r.Workload, ms.Name)
		}
		metrics[ms.Name] = metricValue{v.Value, ms.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

func (r *report) path(dir string) string {
	t := 0
	if r.Trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Host.Seed, t))
}

// save writes the full result and, for a traced run, the trace summary;
// each traced round wrote its own span file.
func (r *report) save(dir, summary string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := r.path(dir)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	return os.WriteFile(strings.TrimSuffix(path, ".json")+".summary.txt", []byte(summary), 0o644)
}

// gitCommit reads the checked-out commit from root/.git without running
// git; a checkout that is not a git repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// compareFiles prints per-metric deltas from result file a to result file
// b. An end-to-end metric that got worse by more than its bound in
// BENCHMARK.json is marked as a regression, and the exit code is then 1.
func compareFiles(stdout, stderr io.Writer, spec *benchSpec, a, b string) int {
	load := func(path string) (*report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	ra, err := load(a)
	if err != nil {
		fmt.Fprintln(stderr, "htapbench:", err)
		return 1
	}
	rb, err := load(b)
	if err != nil {
		fmt.Fprintln(stderr, "htapbench:", err)
		return 1
	}
	if ra.Workload != rb.Workload {
		fmt.Fprintf(stdout, "warning: comparing workload %s with %s\n", ra.Workload, rb.Workload)
	}
	fmt.Fprintf(stdout, "a: %s %s on %d cores (commit %s)\n", a, ra.Workload, ra.Host.Cores, ra.Host.Commit)
	fmt.Fprintf(stdout, "b: %s %s on %d cores (commit %s)\n", b, rb.Workload, rb.Host.Cores, rb.Host.Commit)
	var names []string
	for n := range ra.Metrics {
		if _, ok := rb.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(stdout, "%-36s %14s %14s %9s  %s\n", "metric", "a", "b", "delta", "")
	for _, n := range names {
		va, vb := ra.Metrics[n].Value, rb.Metrics[n].Value
		mark, regressed := judge(spec, n, va, vb)
		if regressed {
			regressions++
		}
		delta := "-"
		if va != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(vb-va)/va)
		}
		fmt.Fprintf(stdout, "%-36s %14.4f %14.4f %9s  %s\n", n, va, vb, delta, mark)
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d end-to-end metric(s) worse than their bound\n", regressions)
		return 1
	}
	return 0
}

// judge says whether b is better or worse than a for a metric with a known
// direction, and whether an end-to-end metric got worse beyond its bound.
func judge(spec *benchSpec, name string, a, b float64) (string, bool) {
	ms, ok := spec.find(name)
	if !ok || a == 0 || a == b {
		return "", false
	}
	worse := (b - a) / a
	if ms.Better == "higher" {
		worse = -worse
	}
	switch {
	case ms.Bound > 0 && worse > ms.Bound:
		return fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*ms.Bound), true
	case worse > 0:
		return "worse", false
	default:
		return "better", false
	}
}
