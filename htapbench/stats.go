package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 <= q <= 1; 0 gives the
// minimum) of xs, or 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values, or 0 when xs is
// empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencies collects operation latencies in milliseconds by operation
// type, in the order the types were first seen.
type latencies struct {
	order []string
	byOp  map[string][]float64
}

func newLatencies() *latencies { return &latencies{byOp: map[string][]float64{}} }

func (l *latencies) add(op string, d time.Duration) {
	if _, ok := l.byOp[op]; !ok {
		l.order = append(l.order, op)
	}
	l.byOp[op] = append(l.byOp[op], ms(d))
}

func (l *latencies) merge(o *latencies) {
	for _, op := range o.order {
		if _, ok := l.byOp[op]; !ok {
			l.order = append(l.order, op)
		}
		l.byOp[op] = append(l.byOp[op], o.byOp[op]...)
	}
}

func (l *latencies) count() int {
	n := 0
	for _, xs := range l.byOp {
		n += len(xs)
	}
	return n
}

func (l *latencies) all() []float64 {
	var out []float64
	for _, op := range l.order {
		out = append(out, l.byOp[op]...)
	}
	return out
}

// typeGeomean is the geometric mean over operation types of each type's
// median latency: for TPC-H this is the paper's Table 2 metric.
func (l *latencies) typeGeomean() float64 {
	meds := make([]float64, 0, len(l.order))
	for _, op := range l.order {
		if xs := l.byOp[op]; len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

// opMetrics fills the end-to-end metrics every workload reports from its
// operation latencies and the counter differences over the measured
// windows.
func opMetrics(m map[string]float64, l *latencies, d counters) {
	all := l.all()
	ops := float64(len(all))
	m["cpu_ms_per_op"] = 1000 * d.cpu.Seconds() / ops
	m["ops_per_s"] = ops / d.wall.Seconds()
	m["op_p50_ms"] = median(all)
	m["op_p90_ms"] = quantile(all, 0.9)
	m["type_geomean_ms"] = l.typeGeomean()
}
