package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/workload/tpcc"
	"s2db/internal/workload/tpch"
)

// span is one timed call. Times are nanoseconds since the round's epoch,
// which every recorder of a round shares, so spans of different clients lie
// on one timeline. parent indexes the enclosing span of the same recorder
// (-1 for a root); every span of one transaction or query carries the
// trace id of its root.
type span struct {
	trace      uint32
	parent     int32
	name       string
	start, end int64
	rows       int64
}

// recorder keeps the spans of one client goroutine in memory. A nil
// recorder records nothing, so untraced runs pay only a nil check.
type recorder struct {
	epoch  time.Time
	client int
	trace  uint32
	spans  []span
	open   []int32
}

func newRecorder(epoch time.Time, client int) *recorder {
	return &recorder{epoch: epoch, client: client, spans: make([]span, 0, 1<<16)}
}

// newTrace starts the next transaction or query: spans begun after it
// share a new trace id.
func (r *recorder) newTrace() {
	if r != nil {
		r.trace++
	}
}

func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{trace: r.trace, parent: parent, name: name, start: int64(time.Since(r.epoch))})
	idx := int32(len(r.spans) - 1)
	r.open = append(r.open, idx)
	return idx
}

func (r *recorder) end(idx int32, rows int64) {
	if r == nil {
		return
	}
	s := &r.spans[idx]
	s.end = int64(time.Since(r.epoch))
	s.rows = rows
	r.open = r.open[:len(r.open)-1]
}

// spanStat aggregates the spans of one name. Self time is each span's
// duration minus the time its child spans cover; a client's calls run one
// at a time, so children never overlap and their durations add up.
type spanStat struct {
	Calls   int64 `json:"calls"`
	Rows    int64 `json:"rows"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (s *spanStat) add(o *spanStat) {
	s.Calls += o.Calls
	s.Rows += o.Rows
	s.TotalNs += o.TotalNs
	s.SelfNs += o.SelfNs
}

func summarize(recs []*recorder) map[string]*spanStat {
	out := map[string]*spanStat{}
	for _, r := range recs {
		if r == nil {
			continue
		}
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			st := out[s.name]
			if st == nil {
				st = &spanStat{}
				out[s.name] = st
			}
			st.Calls++
			st.Rows += s.rows
			st.TotalNs += s.end - s.start
			st.SelfNs += s.end - s.start - child[i]
		}
	}
	return out
}

func spanCount(recs []*recorder) int {
	n := 0
	for _, r := range recs {
		if r != nil {
			n += len(r.spans)
		}
	}
	return n
}

// layerOf names the layer a span belongs to: the prefix before its first
// dot (cluster, exec, or the client layer tpcc/tpch/ch).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeSummary prints per-layer and per-span self time and call counts,
// and the tracing overhead.
func writeSummary(w io.Writer, workload string, stats map[string]*spanStat, window time.Duration, m map[string]float64) {
	layers := map[string]*spanStat{}
	var names []string
	for name, st := range stats {
		names = append(names, name)
		l := layers[layerOf(name)]
		if l == nil {
			l = &spanStat{}
			layers[layerOf(name)] = l
		}
		l.add(st)
	}
	sort.Strings(names)
	var lnames []string
	for n := range layers {
		lnames = append(lnames, n)
	}
	sort.Strings(lnames)
	fmt.Fprintf(w, "trace summary: workload %s, window %.2fs over all rounds\n", workload, window.Seconds())
	fmt.Fprintf(w, "  %-10s %10s %12s\n", "layer", "calls", "self_ms")
	for _, n := range lnames {
		fmt.Fprintf(w, "  %-10s %10d %12.1f\n", n, layers[n].Calls, float64(layers[n].SelfNs)/1e6)
	}
	fmt.Fprintf(w, "  %-22s %10s %12s %12s %12s\n", "span", "calls", "total_ms", "self_ms", "rows")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(w, "  %-22s %10d %12.1f %12.1f %12d\n", n, st.Calls,
			float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6, st.Rows)
	}
	fmt.Fprintf(w, "tracing overhead: %.3f%% of client time (%.0f spans per round at %.0f ns each)\n",
		m["trace.overhead_pct"], m["trace.spans"], m["trace.span_ns"])
}

// writeSpans writes every span as one gzip-compressed JSON line. Span and
// parent ids index the spans of the same client; a trace is identified by
// (client, trace).
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	type line struct {
		Client  int    `json:"client"`
		Trace   uint32 `json:"trace"`
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Rows    int64  `json:"rows"`
	}
	for _, r := range recs {
		if r == nil {
			continue
		}
		for i, s := range r.spans {
			if err := enc.Encode(line{r.client, s.trace, i, s.parent, s.name, s.start, s.end, s.rows}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCostNs measures what recording one span costs on this host, so the
// traced run can state its own overhead.
func spanCostNs() float64 {
	const n = 200000
	r := newRecorder(time.Now(), 0)
	r.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("calibrate"), 0)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// tracedBackend times each call the TPC-C transactions make into the
// cluster (point reads and writes, each including its durable wait) and
// into exec (ScanEq: Views plus an index-seeking exec.Scan).
type tracedBackend struct {
	tpcc.Backend
	rec *recorder
}

func (b tracedBackend) Get(table string, key []types.Value) (types.Row, bool, error) {
	s := b.rec.begin("cluster.get")
	r, ok, err := b.Backend.Get(table, key)
	b.rec.end(s, 0)
	return r, ok, err
}

func (b tracedBackend) Update(table string, key []types.Value, set func(types.Row) types.Row) (bool, error) {
	s := b.rec.begin("cluster.update")
	ok, err := b.Backend.Update(table, key, set)
	b.rec.end(s, 0)
	return ok, err
}

func (b tracedBackend) Insert(table string, row types.Row) error {
	s := b.rec.begin("cluster.insert")
	err := b.Backend.Insert(table, row)
	b.rec.end(s, 0)
	return err
}

func (b tracedBackend) Delete(table string, key []types.Value) (bool, error) {
	s := b.rec.begin("cluster.delete")
	ok, err := b.Backend.Delete(table, key)
	b.rec.end(s, 0)
	return ok, err
}

func (b tracedBackend) ScanEq(table string, cols []int, vals []types.Value, emit func(types.Row) bool) error {
	s := b.rec.begin("exec.scan_eq")
	var rows int64
	err := b.Backend.ScanEq(table, cols, vals, func(r types.Row) bool {
		rows++
		return emit(r)
	})
	b.rec.end(s, rows)
	return err
}

// tracedEngine times each call a TPC-H query makes into the execution
// engine. A call's time includes the query's own callbacks (the emit
// functions run inside the scan or join).
type tracedEngine struct {
	tpch.Engine
	rec *recorder
}

func (e tracedEngine) Scan(table string, filter exec.Node, cols []int, emit func(types.Row) bool) error {
	s := e.rec.begin("exec.scan")
	var rows int64
	err := e.Engine.Scan(table, filter, cols, func(r types.Row) bool {
		rows++
		return emit(r)
	})
	e.rec.end(s, rows)
	return err
}

func (e tracedEngine) Aggregate(table string, filter exec.Node, groupCols []int, aggs []exec.AggSpec) ([]types.Row, error) {
	s := e.rec.begin("exec.aggregate")
	out, err := e.Engine.Aggregate(table, filter, groupCols, aggs)
	e.rec.end(s, int64(len(out)))
	return out, err
}

func (e tracedEngine) Join(build []types.Row, buildKey []int, probeTable string, probeKey []int,
	probeFilter exec.Node, emit func(b, p types.Row) bool) error {
	s := e.rec.begin("exec.join")
	var rows int64
	err := e.Engine.Join(build, buildKey, probeTable, probeKey, probeFilter, func(b, p types.Row) bool {
		rows++
		return emit(b, p)
	})
	e.rec.end(s, rows)
	return err
}
