package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"s2db"
	"s2db/internal/blob"
	"s2db/internal/cluster"
	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/vector"
	"s2db/internal/workload/chbench"
	"s2db/internal/workload/tpcc"
)

func htapConfig(store blob.Store) s2db.Config {
	return s2db.Config{
		Name:                  "htap",
		Partitions:            1,
		SyncReplicas:          1,
		BackgroundMaintenance: true,
		MaxSegmentRows:        4096,
		BlobStore:             store,
	}
}

const (
	workspaceName = "analytics"
	// markerTable holds the visibility markers, apart from the TPC-C data.
	markerTable = "bench_marker"
	// markerEvery is how often a marker row is committed on the primary.
	markerEvery = 10 * time.Millisecond
	// markerPoll is the pause between looks for a marker on the workspace.
	markerPoll = 50 * time.Microsecond
	// markerTimeout bounds the wait for one marker; a marker not visible
	// by then counts as a failed operation.
	markerTimeout  = 5 * time.Second
	catchUpTimeout = 30 * time.Second
)

func markerSchema() *types.Schema {
	s := types.NewSchema(types.Column{Name: "id", Type: types.Int64}, types.Column{Name: "committed_ns", Type: types.Int64})
	s.UniqueKey = []int{0}
	s.ShardKey = []int{0}
	return s
}

// chMetricName maps "ch-q12-carriers" to "ch.q12".
func chMetricName(q string) string {
	name := strings.TrimPrefix(q, "ch-")
	if i := strings.IndexByte(name, '-'); i > 0 {
		name = name[:i]
	}
	return "ch." + name
}

// runAnalytic is the closed-loop analytic client: it loops over the CH
// queries on the workspace until stop is set.
func runAnalytic(views func(string) ([]*core.View, error), stop *atomic.Bool, rec *recorder) (*latencies, int64, error) {
	qs := chbench.Queries()
	names := make([]string, len(qs))
	for i, q := range qs {
		names[i] = chMetricName(q.Name)
	}
	lat := newLatencies()
	var failed int64
	var firstErr error
	for i := 0; !stop.Load(); i++ {
		k := i % len(qs)
		rec.newTrace()
		s := rec.begin(names[k])
		start := time.Now()
		err := qs[k].Run(views)
		d := time.Since(start)
		rec.end(s, 0)
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", qs[k].Name, err)
			}
			continue
		}
		lat.add(names[k], d)
	}
	return lat, failed, firstErr
}

// markerVisible reports whether marker id is visible on the workspace,
// seeking its unique key in the write buffer.
func markerVisible(ws *cluster.Workspace, id int64) (bool, error) {
	views, err := ws.Views(markerTable)
	if err != nil {
		return false, err
	}
	from := types.EncodeKey(nil, types.NewInt(id))
	to := append(append([]byte(nil), from...), 0xff, 0xff, 0xff, 0xff)
	found := false
	for _, v := range views {
		scan := exec.NewScan(v, exec.NewLeaf(0, vector.Eq, types.NewInt(id)))
		scan.BufferFrom, scan.BufferTo = from, to
		scan.Run(func(types.Row) bool {
			found = true
			return false
		})
		if found {
			return true, nil
		}
	}
	return false, nil
}

// markerResult is what the visibility probe measured.
type markerResult struct {
	delays            []float64
	attempted, failed int64
	firstErr          error
}

// runMarkers commits a marker row on the primary every markerEvery and
// times how long after its insert starts it becomes visible on the
// workspace. The insert returns only once the commit is durable, and the
// workspace may apply the row before that, so the delay is measured from
// the start of the insert. It is a light probe beside the two load
// clients.
func runMarkers(db *s2db.DB, ws *cluster.Workspace, stop *atomic.Bool) *markerResult {
	res := &markerResult{}
	fail := func(err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	tick := time.NewTicker(markerEvery)
	defer tick.Stop()
	for id := int64(1); !stop.Load(); id++ {
		<-tick.C
		res.attempted++
		start := time.Now()
		if err := db.Insert(markerTable, types.Row{types.NewInt(id), types.NewInt(start.UnixNano())}); err != nil {
			fail(fmt.Errorf("marker %d: %w", id, err))
			continue
		}
		for {
			ok, err := markerVisible(ws, id)
			if err != nil {
				fail(fmt.Errorf("marker %d: %w", id, err))
				break
			}
			if ok {
				res.delays = append(res.delays, ms(time.Since(start)))
				break
			}
			if time.Since(start) > markerTimeout {
				fail(fmt.Errorf("marker %d not visible on the workspace after %v", id, markerTimeout))
				break
			}
			time.Sleep(markerPoll)
		}
	}
	return res
}

func runHTAPWorkload(p params) (*outcome, error) {
	rd := newRound(p)
	store := blob.NewMemory()
	var ws *cluster.Workspace
	var createMs float64
	db, err := rd.setUp(func() (*captured, error) { return tpccData(p.seed) }, func(data *captured) (*s2db.DB, error) {
		db, err := s2db.Open(htapConfig(store))
		if err != nil {
			return nil, err
		}
		fail := func(err error) (*s2db.DB, error) {
			db.Close()
			return nil, err
		}
		if _, err := loadTPCC(db, data); err != nil {
			return fail(err)
		}
		if err := db.CreateTable(markerTable, markerSchema()); err != nil {
			return fail(err)
		}
		start := time.Now()
		if ws, err = db.Cluster().CreateWorkspace(workspaceName); err != nil {
			return fail(err)
		}
		if err := db.Cluster().WaitCaughtUp(ws, catchUpTimeout); err != nil {
			return fail(err)
		}
		createMs = ms(time.Since(start))
		return db, nil
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	primary := viewsScanner(db.Cluster().Views)
	before, err := readTPCC(primary)
	if err != nil {
		return nil, err
	}
	b := &tpcc.S2Backend{C: db.Cluster()}
	txnRec, chRec := rd.recorder(), rd.recorder()
	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		txns     *txnResult
		chLat    *latencies
		chFailed int64
		chErr    error
		markers  *markerResult
	)
	c0 := readCounters(db)
	stopSampling := rd.smp.watch(db, ws)
	wg.Add(3)
	go func() {
		defer wg.Done()
		txns = runTxns(b, rand.New(rand.NewSource(p.seed*1000)), 1, &stop, txnRec)
	}()
	go func() {
		defer wg.Done()
		chLat, chFailed, chErr = runAnalytic(ws.Views, &stop, chRec)
	}()
	go func() {
		defer wg.Done()
		markers = runMarkers(db, ws, &stop)
	}()
	time.Sleep(p.window)
	stop.Store(true)
	wg.Wait()
	c1 := readCounters(db)
	catchStart := time.Now()
	err = db.Cluster().WaitCaughtUp(ws, catchUpTimeout)
	catchupMs := ms(time.Since(catchStart))
	stopSampling()
	if err != nil {
		return nil, fmt.Errorf("final catch-up: %w", err)
	}
	rd.measure(c0, c0, c1)

	out := newOutcome()
	out.attempted = int64(txns.lat.count()) + txns.failed + int64(chLat.count()) + chFailed + markers.attempted
	out.failed = txns.failed + chFailed + markers.failed
	for _, err := range []error{txns.firstErr, chErr, markers.firstErr} {
		if err != nil {
			out.notes = append(out.notes, "first failure: "+err.Error())
		}
	}
	after, err := readTPCC(primary)
	if err != nil {
		return nil, err
	}
	out.violations = append(checkTPCC(before, after, txns.newOrders, txns.rollbacks), checkCH(ws.Views)...)
	tables := []string{markerTable}
	for t := range tpcc.Schemas() {
		tables = append(tables, t)
	}
	divergent, err := divergentRows(primary, viewsScanner(ws.Views), tables)
	if err != nil {
		return nil, err
	}
	if divergent > 0 {
		out.notes = append(out.notes, fmt.Sprintf("F2: %d rows differ between the caught-up workspace and the primary", divergent))
	}

	window := rd.w.wall
	txnMetrics(out.m, txns, window)
	out.m["ch.analytic_qps"] = float64(chLat.count()) / window.Seconds()
	out.m["ch.analytic_p50_ms"] = median(chLat.all())
	for _, n := range chLat.order {
		out.m[n+"_ms"] = median(chLat.byOp[n])
	}
	out.m["ch.visibility_delay_p50_ms"] = median(markers.delays)
	out.m["cluster.workspace_create_ms"] = createMs
	out.m["cluster.workspace_catchup_ms"] = catchupMs
	out.m["cluster.workspace_divergent_rows"] = float64(divergent)
	out.m["blob.bytes_stored"] = float64(store.Bytes())
	all := newLatencies()
	all.merge(txns.lat)
	all.merge(chLat)
	rd.finish(out, all, 2)
	return out, nil
}
