package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"s2db"
	"s2db/internal/baseline"
	"s2db/internal/types"
	"s2db/internal/workload/tpch"
)

// tpchConfig keeps the sync replica of the other workloads although the
// workload never writes after load: without it, one round in sixty lost
// whole segments of orders and lineitem (F6 in README.md).
func tpchConfig() s2db.Config {
	return s2db.Config{
		Name:                  "tpch",
		Partitions:            2,
		SyncReplicas:          1,
		BackgroundMaintenance: true,
		MaxSegmentRows:        4096,
	}
}

// tpchDataSeed seeds the TPC-H data generator. As in TPC-H itself, the
// database is the same in every run at a given scale factor, and so is the
// query stream: the 22 queries in order, with fixed parameters. With data
// drawn from the run's seed the geometric mean moved by up to 15% from seed
// to seed, and with the query order drawn from it by up to 30%.
const tpchDataSeed = 1

// referenceResults runs the 22 queries on the row-store baseline loaded
// with the same data: the expected output of every pass.
func referenceResults(data *captured) ([][]types.Row, error) {
	db := baseline.NewRowDB()
	l := &tpch.RowLoader{DB: db}
	if err := l.CreateTables(); err != nil {
		return nil, err
	}
	if err := data.loadInto(l.Load); err != nil {
		return nil, err
	}
	e := &tpch.RowEngine{DB: db}
	var want [][]types.Row
	for _, q := range tpch.Queries() {
		rows, err := q.Run(e)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		want = append(want, rows)
	}
	return want, nil
}

// queryMetricName maps "Q7" to "tpch.q07".
func queryMetricName(q string) string {
	n, _ := strconv.Atoi(strings.TrimPrefix(q, "Q"))
	return fmt.Sprintf("tpch.q%02d", n)
}

// passBreakdown splits one traced pass into the time and rows of its
// top-level engine calls (scan, aggregate, join) and the rest, which is
// the client's own time.
type passBreakdown struct {
	ms   map[string]float64
	rows map[string]float64
}

// breakdown reads the spans spans[from:] of one pass that took passNs.
func breakdown(spans []span, from int, passNs int64) passBreakdown {
	b := passBreakdown{ms: map[string]float64{}, rows: map[string]float64{}}
	var engine int64
	for _, s := range spans[from:] {
		if s.parent < 0 || !strings.HasPrefix(spans[s.parent].name, "tpch.") {
			continue
		}
		engine += s.end - s.start
		b.ms[s.name] += float64(s.end-s.start) / 1e6
		b.rows[s.name] += float64(s.rows)
	}
	b.ms["tpch.client"] = float64(passNs-engine) / 1e6
	return b
}

// tpchReference is the expected output of the 22 queries and the rows
// loaded per table for one seed and scale factor.
type tpchReference struct {
	Results   [][]types.Row
	RowCounts map[string]int
}

func newTPCHReference(data *captured) (*tpchReference, error) {
	want, err := referenceResults(data)
	if err != nil {
		return nil, err
	}
	ref := &tpchReference{Results: want, RowCounts: map[string]int{}}
	for _, b := range data.batches {
		ref.RowCounts[b.table] += len(b.rows)
	}
	return ref, nil
}

// writeReference computes the reference once for every round of a run and
// stores it where the rounds' processes read it.
func writeReference(path string, sf float64) error {
	data := &captured{}
	if err := tpch.Generate(data, sf, tpchDataSeed); err != nil {
		return err
	}
	ref, err := newTPCHReference(data)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(ref); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readReference(path string) (*tpchReference, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ref tpchReference
	if err := gob.NewDecoder(f).Decode(&ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ref, nil
}

func runTPCHWorkload(p params) (*outcome, error) {
	var ref *tpchReference
	if p.reference != "" {
		var err error
		if ref, err = readReference(p.reference); err != nil {
			return nil, err
		}
	}
	rd := newRound(p)
	db, err := rd.setUp(func() (*captured, error) {
		data := &captured{}
		if err := tpch.Generate(data, p.sf, tpchDataSeed); err != nil {
			return nil, err
		}
		if ref == nil {
			var err error
			if ref, err = newTPCHReference(data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}, func(data *captured) (*s2db.DB, error) {
		db, err := s2db.Open(tpchConfig())
		if err != nil {
			return nil, err
		}
		l := &tpch.S2Loader{C: db.Cluster()}
		if err := l.CreateTables(); err == nil {
			err = data.loadInto(l.Load)
		}
		if err != nil {
			db.Close()
			return nil, err
		}
		return db, nil
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()

	out := newOutcome()
	queries := tpch.Queries()
	names := make([]string, len(queries))
	for i, q := range queries {
		names[i] = queryMetricName(q.Name)
	}
	rec := rd.recorder()
	var e tpch.Engine = &tpch.S2Engine{C: db.Cluster()}
	if rec != nil {
		e = tracedEngine{Engine: e, rec: rec}
	}
	wrong := make([]bool, len(queries))
	runPass := func(pass int, lat *latencies) {
		for i, q := range queries {
			rec.newTrace()
			s := rec.begin(names[i])
			start := time.Now()
			rows, err := q.Run(e)
			d := time.Since(start)
			rec.end(s, int64(len(rows)))
			if err == nil {
				lat.add(names[i], d)
				err = compareRows(rows, ref.Results[i])
			}
			if err != nil && !wrong[i] {
				wrong[i] = true
				out.notes = append(out.notes, fmt.Sprintf("%s failed on pass %d: %v", q.Name, pass, err))
			}
		}
	}

	c0 := readCounters(db)
	stopSampling := rd.smp.watch(db, nil)
	// The first pass after load is checked but not timed.
	runPass(0, newLatencies())
	lat := newLatencies()
	var passSecs []float64
	var passes []passBreakdown
	w0 := readCounters(db)
	for pass := 1; time.Since(w0.at) < p.window; pass++ {
		first := 0
		if rec != nil {
			first = len(rec.spans)
		}
		start := time.Now()
		runPass(pass, lat)
		d := time.Since(start)
		passSecs = append(passSecs, d.Seconds())
		if rec != nil {
			passes = append(passes, breakdown(rec.spans, first, d.Nanoseconds()))
		}
	}
	stopSampling()
	rd.measure(c0, w0, readCounters(db))

	scan := viewsScanner(db.Cluster().Views)
	for table, n := range ref.RowCounts {
		got := 0
		if err := scan(table, func(types.Row) { got++ }); err != nil {
			return nil, err
		}
		if got != n {
			out.violations = append(out.violations, fmt.Sprintf("table %s holds %d rows, %d were loaded", table, got, n))
		}
	}
	out.attempted = int64(len(queries))
	for _, w := range wrong {
		if w {
			out.failed++
		}
	}
	out.m["tpch.geomean_ms"] = lat.typeGeomean()
	out.m["tpch.pass_s"] = median(passSecs)
	for _, n := range names {
		out.m[n+"_ms"] = median(lat.byOp[n])
	}
	for _, k := range []string{"exec.scan", "exec.aggregate", "exec.join", "tpch.client"} {
		if len(passes) == 0 {
			break
		}
		var msv, rows []float64
		for _, b := range passes {
			msv = append(msv, b.ms[k])
			rows = append(rows, b.rows[k])
		}
		out.m[k+"_ms"] = median(msv)
		switch k {
		case "exec.scan", "exec.join":
			out.m[k+"_rows"] = median(rows)
		case "exec.aggregate":
			out.m["exec.aggregate_groups"] = median(rows)
		}
	}
	rd.finish(out, lat, 1)
	return out, nil
}
