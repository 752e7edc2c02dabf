package main

import (
	"strings"
	"testing"
	"time"
)

func TestSummarizeSelfTime(t *testing.T) {
	r := &recorder{}
	r.spans = []span{
		{parent: -1, name: "tpcc.new_order", start: 0, end: 100},
		{parent: 0, name: "cluster.update", start: 10, end: 40},
		{parent: 0, name: "exec.scan_eq", start: 50, end: 60, rows: 3},
		{parent: -1, name: "tpcc.payment", start: 200, end: 210},
	}
	st := summarize([]*recorder{r, nil})
	if got := st["tpcc.new_order"]; got.Calls != 1 || got.TotalNs != 100 || got.SelfNs != 60 {
		t.Fatalf("new_order: %+v, want 1 call, 100ns total, 60ns self", *got)
	}
	if got := st["exec.scan_eq"]; got.SelfNs != 10 || got.Rows != 3 {
		t.Fatalf("scan_eq: %+v", *got)
	}
	if layerOf("cluster.update") != "cluster" || layerOf("plain") != "plain" {
		t.Fatal("layerOf")
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder(time.Now(), 0)
	r.newTrace()
	outer := r.begin("tpch.q01")
	inner := r.begin("exec.scan")
	r.end(inner, 5)
	r.end(outer, 1)
	if len(r.spans) != 2 || r.spans[1].parent != outer || r.spans[0].parent != -1 || r.spans[1].trace != r.spans[0].trace {
		t.Fatalf("spans: %+v", r.spans)
	}
	var none *recorder
	none.newTrace()
	none.end(none.begin("x"), 0) // a nil recorder records nothing
}

func testSpec() *benchSpec {
	return &benchSpec{
		EndToEnd: []metricSpec{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
			{Name: "ops", Unit: "1/s", Better: "higher", Bound: 0.1}},
		PerLayer: []metricSpec{{Name: "core.merges", Unit: "count", Better: "lower"}},
	}
}

func TestResultLine(t *testing.T) {
	spec := testSpec()
	out := newOutcome()
	out.m["setup_s"] = 1.5
	r := newReport(params{workload: "tpcc"}, 10, out, spec, ".")
	if _, err := r.resultLine(spec, false); err == nil || !strings.Contains(err.Error(), "ops") {
		t.Fatalf("missing end-to-end metric not reported: %v", err)
	}
	line, err := r.resultLine(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":0,"failed":0,"metrics":{"core.merges":{"value":0,"unit":"count"}}}`
	if string(line) != want {
		t.Fatalf("traced line %s, want %s", line, want)
	}
}

func TestJudge(t *testing.T) {
	spec := testSpec()
	cases := []struct {
		name      string
		a, b      float64
		regressed bool
		mark      string
	}{
		{"setup_s", 1, 1.2, false, "worse"},
		{"setup_s", 1, 1.3, true, "REGRESSION"},
		{"ops", 100, 95, false, "worse"},
		{"ops", 100, 80, true, "REGRESSION"},
		{"ops", 100, 120, false, "better"},
		{"core.merges", 1, 100, false, "worse"},
		{"unknown", 1, 2, false, ""},
	}
	for _, c := range cases {
		mark, regressed := judge(spec, c.name, c.a, c.b)
		if regressed != c.regressed || !strings.HasPrefix(mark, c.mark) {
			t.Errorf("%s %v->%v: %q %v", c.name, c.a, c.b, mark, regressed)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || quantile(xs, 1) != 5 || quantile(xs, 0.01) != 1 || median(nil) != 0 {
		t.Fatal("quantile")
	}
	if g := geomean([]float64{2, 8}); g < 3.999 || g > 4.001 {
		t.Fatalf("geomean %v", g)
	}
	if queryMetricName("Q7") != "tpch.q07" || chMetricName("ch-q12-carriers") != "ch.q12" {
		t.Fatal("metric names")
	}
}

// TestWorkloadsSmoke runs each workload at a tiny size and checks that it
// reports every end-to-end metric of BENCHMARK.json and passes its own
// output checks.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three workloads")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			p := params{workload: name, seed: 1, window: 300 * time.Millisecond, trace: true, sf: 0.002}
			out, err := fn(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.violations) > 0 {
				t.Fatalf("checks failed: %v", out.violations)
			}
			if out.attempted == 0 {
				t.Fatal("no operation attempted")
			}
			r := newReport(p, 1, out, spec, "..")
			if _, err := r.resultLine(spec, false); err != nil {
				t.Fatal(err)
			}
			for _, ms := range spec.EndToEnd {
				if v := out.m[ms.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", ms.Name, v)
				}
			}
			if out.m["trace.spans"] == 0 || len(summarize(out.recs)) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}
