package main

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"s2db"
	"s2db/internal/baseline"
	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/workload/tpcc"
	"s2db/internal/workload/tpch"
)

// rowDBScanner reads tables of the row-store baseline.
func rowDBScanner(db *baseline.RowDB) scanFunc {
	return func(table string, emit func(types.Row)) error {
		t, err := db.Table(table)
		if err != nil {
			return err
		}
		t.Scan(func(r types.Row) bool {
			emit(r)
			return true
		})
		return nil
	}
}

// tpccOnRowDB loads TPC-C into the row-store baseline, which shares none
// of the engine's storage code, and runs one client on it for a moment.
func tpccOnRowDB(t *testing.T) (*baseline.RowDB, tpccState, *txnResult) {
	t.Helper()
	db := baseline.NewRowDB()
	b := &tpcc.RowDBBackend{DB: db}
	if err := tpcc.Load(b, tpccWarehouses, 1); err != nil {
		t.Fatal(err)
	}
	before, err := readTPCC(rowDBScanner(db))
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	time.AfterFunc(200*time.Millisecond, func() { stop.Store(true) })
	res := runTxns(b, rand.New(rand.NewSource(1)), 1, &stop, nil)
	if res.failed > 0 {
		t.Fatalf("%d transactions failed: %v", res.failed, res.firstErr)
	}
	if res.newOrders == 0 {
		t.Fatal("no New-Order completed")
	}
	return db, before, res
}

func TestCheckTPCCAcceptsConsistentState(t *testing.T) {
	db, before, res := tpccOnRowDB(t)
	after, err := readTPCC(rowDBScanner(db))
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkTPCC(before, after, res.newOrders, res.rollbacks); len(bad) > 0 {
		t.Fatalf("consistent state rejected: %v", bad)
	}
}

func TestCheckTPCCRejectsDistrictCounterOffByOne(t *testing.T) {
	db, before, res := tpccOnRowDB(t)
	dt, err := db.Table(tpcc.TDistrict)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := dt.Update([]types.Value{types.NewInt(1), types.NewInt(3)}, func(r types.Row) types.Row {
		r[tpcc.DNextOID] = types.NewInt(r[tpcc.DNextOID].I + 1)
		return r
	})
	if err != nil || !ok {
		t.Fatalf("corrupting district 1/3: ok=%v err=%v", ok, err)
	}
	after, err := readTPCC(rowDBScanner(db))
	if err != nil {
		t.Fatal(err)
	}
	bad := checkTPCC(before, after, res.newOrders, res.rollbacks)
	if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), "district 1/3") {
		t.Fatalf("off-by-one district counter not caught: %v", bad)
	}
}

func TestCheckTPCCRejectsLostOrderLine(t *testing.T) {
	db, before, res := tpccOnRowDB(t)
	ol, err := db.Table(tpcc.TOrderLine)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ol.Delete([]types.Value{types.NewInt(1), types.NewInt(1), types.NewInt(1), types.NewInt(1)})
	if err != nil || !ok {
		t.Fatalf("deleting an order line: ok=%v err=%v", ok, err)
	}
	after, err := readTPCC(rowDBScanner(db))
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkTPCC(before, after, res.newOrders, res.rollbacks); len(bad) != 1 || !strings.Contains(bad[0], "ORDER_LINE") {
		t.Fatalf("lost order line not caught as one violation: %v", bad)
	}
}

func TestRollbackIsRecognised(t *testing.T) {
	b := &tpcc.RowDBBackend{DB: baseline.NewRowDB()}
	if err := tpcc.Load(b, 1, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		err := tpcc.NewOrder(b, rng, 1, 1)
		if err == nil {
			continue
		}
		if err.Error() != rollbackMsg {
			t.Fatalf("New-Order failed with %q, not the intentional rollback %q", err, rollbackMsg)
		}
		return
	}
	t.Fatal("no intentional rollback in 2000 New-Orders")
}

// tpchWant computes the reference results at a tiny scale factor.
func tpchWant(t *testing.T) [][]types.Row {
	t.Helper()
	data := &captured{}
	if err := tpch.Generate(data, 0.002, 1); err != nil {
		t.Fatal(err)
	}
	want, err := referenceResults(data)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestCompareRowsRejectsDroppedRow(t *testing.T) {
	want := tpchWant(t)
	for i, rows := range want {
		if len(rows) < 2 {
			continue
		}
		if err := compareRows(rows, rows); err != nil {
			t.Fatalf("Q%d against itself: %v", i+1, err)
		}
		dropped := append(append([]types.Row(nil), rows[:1]...), rows[2:]...)
		if err := compareRows(dropped, rows); err == nil {
			t.Fatalf("Q%d with one row dropped passed", i+1)
		}
		// Same count, one row replaced by a duplicate of another.
		dup := append([]types.Row{rows[0]}, rows[:len(rows)-1]...)
		if err := compareRows(dup, rows); err == nil {
			t.Fatalf("Q%d with a duplicated row passed", i+1)
		}
	}
}

func TestCompareRowsToleratesReorderedSum(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3}
	fwd := xs[0] + xs[1] + xs[2]
	rev := xs[2] + xs[1] + xs[0]
	if fwd == rev {
		t.Fatal("test sums do not differ by reordering")
	}
	row := func(v types.Value) []types.Row { return []types.Row{{types.NewString("x"), v}} }
	if err := compareRows(row(types.NewFloat(fwd)), row(types.NewFloat(rev))); err != nil {
		t.Fatalf("reordered sum rejected: %v", err)
	}
	if err := compareRows(row(types.NewFloat(rev*(1+1e-6))), row(types.NewFloat(rev))); err == nil {
		t.Fatal("a real difference of 1e-6 passed")
	}
	if err := compareRows(row(types.NewInt(3)), row(types.NewFloat(3))); err != nil {
		t.Fatalf("int and float forms of one number rejected: %v", err)
	}
}

func TestCheckCHAgreesAndCatchesCorruption(t *testing.T) {
	db, err := s2db.Open(htapConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data, err := tpccData(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadTPCC(db, data); err != nil {
		t.Fatal(err)
	}
	if bad := checkCH(db.Cluster().Views); len(bad) > 0 {
		t.Fatalf("fresh database fails the CH checks: %v", bad)
	}
	c := chChecks()[2] // district revenue: one group per district
	var rows []types.Row
	if err := viewsScanner(db.Cluster().Views)(c.table, func(r types.Row) { rows = append(rows, r.Clone()) }); err != nil {
		t.Fatal(err)
	}
	want := fold(c, rows)
	vs, err := db.Cluster().Views(c.table)
	if err != nil {
		t.Fatal(err)
	}
	got := exec.AggregateViews(vs, c.filter, c.group, c.aggs, nil)
	if err := compareAggregates(c, got, want); err != nil {
		t.Fatalf("exec and fold disagree: %v", err)
	}
	got[0][len(c.group)] = types.NewFloat(got[0][len(c.group)].F + 1)
	if err := compareAggregates(c, got, want); err == nil {
		t.Fatal("corrupted district revenue passed")
	}
	if err := compareAggregates(c, got[1:], want); err == nil {
		t.Fatal("missing group passed")
	}
}
