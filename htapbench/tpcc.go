package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"s2db"
	"s2db/internal/types"
	"s2db/internal/workload/tpcc"
)

// tpccWarehouses is the TPC-C scale of the tpcc and htap workloads.
const tpccWarehouses = 2

// batch is one Load call of a data generator.
type batch struct {
	table string
	rows  []types.Row
}

// captured records a generator's Load calls so the same data can be
// loaded into several databases and a reference store without generating
// it again. It serves as a tpch.Loader and as a tpcc.Backend for
// tpcc.Load, which calls only CreateTables and Load.
type captured struct {
	tpcc.Backend
	batches []batch
}

func (c *captured) CreateTables() error { return nil }

// Load copies the batch: the TPC-H generator reuses its batch slices.
func (c *captured) Load(table string, rows []types.Row) error {
	c.batches = append(c.batches, batch{table, append([]types.Row(nil), rows...)})
	return nil
}

// loadInto replays the captured Load calls in order.
func (c *captured) loadInto(load func(table string, rows []types.Row) error) error {
	for _, b := range c.batches {
		if err := load(b.table, b.rows); err != nil {
			return fmt.Errorf("load %s: %w", b.table, err)
		}
	}
	return nil
}

func tpccData(seed int64) (*captured, error) {
	c := &captured{}
	if err := tpcc.Load(c, tpccWarehouses, seed); err != nil {
		return nil, err
	}
	return c, nil
}

// loadTPCC creates the TPC-C tables in db and bulk-loads the captured data.
func loadTPCC(db *s2db.DB, data *captured) (*tpcc.S2Backend, error) {
	b := &tpcc.S2Backend{C: db.Cluster()}
	if err := b.CreateTables(); err != nil {
		return nil, err
	}
	return b, data.loadInto(b.Load)
}

var (
	txnNames = [...]string{"new_order", "payment", "order_status", "delivery", "stock_level"}
	txnSpans = [...]string{"tpcc.new_order", "tpcc.payment", "tpcc.order_status", "tpcc.delivery", "tpcc.stock_level"}
)

// rollbackMsg is the text of the workload package's intentional New-Order
// rollback error, which is not exported.
const rollbackMsg = "tpcc: intentional rollback"

// txnResult is what one TPC-C client did.
type txnResult struct {
	lat       *latencies
	newOrders int64 // completed New-Orders, rollbacks excluded
	rollbacks int64
	failed    int64
	firstErr  error
}

func (r *txnResult) add(o *txnResult) {
	r.lat.merge(o.lat)
	r.newOrders += o.newOrders
	r.rollbacks += o.rollbacks
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// runTxns is one closed-loop TPC-C client with no think time: the spec's
// 45/43/4/4/4 mix on its home warehouse until stop is set. A failed
// transaction is counted and the client goes on.
func runTxns(b tpcc.Backend, rng *rand.Rand, home int, stop *atomic.Bool, rec *recorder) *txnResult {
	if rec != nil {
		b = tracedBackend{Backend: b, rec: rec}
	}
	res := &txnResult{lat: newLatencies()}
	for !stop.Load() {
		roll := rng.Intn(100)
		k := 4
		switch {
		case roll < 45:
			k = 0
		case roll < 88:
			k = 1
		case roll < 92:
			k = 2
		case roll < 96:
			k = 3
		}
		rec.newTrace()
		s := rec.begin(txnSpans[k])
		start := time.Now()
		var err error
		switch k {
		case 0:
			err = tpcc.NewOrder(b, rng, home, tpccWarehouses)
		case 1:
			err = tpcc.Payment(b, rng, home, tpccWarehouses)
		case 2:
			err = tpcc.OrderStatus(b, rng, home)
		case 3:
			err = tpcc.Delivery(b, rng, home)
		default:
			err = tpcc.StockLevel(b, rng, home)
		}
		d := time.Since(start)
		rec.end(s, 0)
		switch {
		case err == nil:
			res.lat.add(txnNames[k], d)
			if k == 0 {
				res.newOrders++
			}
		case err.Error() == rollbackMsg:
			res.lat.add(txnNames[k], d)
			res.rollbacks++
		default:
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s: %w", txnNames[k], err)
			}
		}
	}
	return res
}

// txnMetrics fills the TPC-C figures of a run.
func txnMetrics(m map[string]float64, r *txnResult, window time.Duration) {
	m["txn.per_s"] = float64(r.lat.count()) / window.Seconds()
	m["txn.new_order_p50_ms"] = median(r.lat.byOp["new_order"])
	m["txn.new_order_p99_ms"] = quantile(r.lat.byOp["new_order"], 0.99)
	m["txn.payment_p50_ms"] = median(r.lat.byOp["payment"])
	m["txn.delivery_p50_ms"] = median(r.lat.byOp["delivery"])
	m["txn.stock_level_p50_ms"] = median(r.lat.byOp["stock_level"])
}

func tpccConfig() s2db.Config {
	return s2db.Config{
		Name:                  "tpcc",
		Partitions:            1,
		SyncReplicas:          1,
		BackgroundMaintenance: true,
		MaxSegmentRows:        4096,
	}
}

// tpccClients is the number of closed-loop TPC-C clients: two, one per
// warehouse, but never more client goroutines than the host has cores.
func tpccClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func runTPCCWorkload(p params) (*outcome, error) {
	rd := newRound(p)
	db, err := rd.setUp(func() (*captured, error) { return tpccData(p.seed) }, func(data *captured) (*s2db.DB, error) {
		db, err := s2db.Open(tpccConfig())
		if err != nil {
			return nil, err
		}
		if _, err := loadTPCC(db, data); err != nil {
			db.Close()
			return nil, err
		}
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
	clients := tpccClients()
	recs := make([]*recorder, clients)
	for i := range recs {
		recs[i] = rd.recorder()
	}
	c0 := readCounters(db)
	stopSampling := rd.smp.watch(db, nil)
	var stop atomic.Bool
	results := make([]*txnResult, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.seed*1000 + int64(i)))
			results[i] = runTxns(b, rng, i%tpccWarehouses+1, &stop, recs[i])
		}(i)
	}
	time.Sleep(p.window)
	stop.Store(true)
	wg.Wait()
	stopSampling()
	rd.measure(c0, c0, readCounters(db))

	total := results[0]
	for _, r := range results[1:] {
		total.add(r)
	}
	out := newOutcome()
	out.attempted = int64(total.lat.count()) + total.failed
	out.failed = total.failed
	if total.firstErr != nil {
		out.notes = append(out.notes, "first failed transaction: "+total.firstErr.Error())
	}
	after, err := readTPCC(primary)
	if err != nil {
		return nil, err
	}
	out.violations = checkTPCC(before, after, total.newOrders, total.rollbacks)
	txnMetrics(out.m, total, rd.w.wall)
	rd.finish(out, total.lat, clients)
	return out, nil
}
