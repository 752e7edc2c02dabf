package main

import (
	"fmt"
	"math"
	"sort"

	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/vector"
	"s2db/internal/workload/tpcc"
)

// The checks in this file recompute what the program's outputs must be
// with plain Go over rows the benchmark reads back, so that a fault in the
// engine cannot make its own check pass.

// relTol is the relative tolerance for floating-point results: loose
// enough that a change which only reorders a floating-point sum passes,
// tight enough that any real difference in a TPC-H or CH figure fails.
const relTol = 1e-9

func floatsClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// valuesEqual compares two result values: numbers by value across int and
// float representations (with relTol for floats), everything else exactly.
func valuesEqual(a, b types.Value) bool {
	if a.IsNull || b.IsNull {
		return a.IsNull == b.IsNull
	}
	num := func(v types.Value) (float64, bool) {
		switch v.Type {
		case types.Int64:
			return float64(v.I), true
		case types.Float64:
			return v.F, true
		}
		return 0, false
	}
	if x, ok := num(a); ok {
		y, ok := num(b)
		if !ok {
			return false
		}
		if a.Type == types.Int64 && b.Type == types.Int64 {
			return a.I == b.I
		}
		return floatsClose(x, y)
	}
	return a.Type == b.Type && a.S == b.S
}

func rowsEqual(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !valuesEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// compareRows checks a query result row for row against the expected
// result. Rows that tie on a query's sort keys may legitimately come out
// in another order, so a positional mismatch falls back to matching the
// two results as multisets.
func compareRows(got, want []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	positional := true
	for i := range got {
		if !rowsEqual(got[i], want[i]) {
			positional = false
			break
		}
	}
	if positional {
		return nil
	}
	used := make([]bool, len(want))
	for i, g := range got {
		found := false
		for j, w := range want {
			if !used[j] && rowsEqual(g, w) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return fmt.Errorf("row %d %v has no match in the expected result", i, g)
		}
	}
	return nil
}

// scanFunc reads every row of a table. The callback's row may be reused
// after it returns.
type scanFunc func(table string, emit func(types.Row)) error

// viewsScanner reads tables through core views: the primary's or a
// workspace's.
func viewsScanner(views func(string) ([]*core.View, error)) scanFunc {
	return func(table string, emit func(types.Row)) error {
		vs, err := views(table)
		if err != nil {
			return err
		}
		for _, v := range vs {
			exec.NewScan(v, nil).Run(func(r types.Row) bool {
				emit(r)
				return true
			})
		}
		return nil
	}
}

type district struct{ w, d int64 }

// tpccState is what the TPC-C consistency conditions read.
type tpccState struct {
	wYtd       map[int64]float64
	dYtd       map[district]float64
	dNextOID   map[district]int64
	maxOID     map[district]int64
	newOrders  map[district][]int64
	olCntSum   int64
	orderLines int64
}

func readTPCC(scan scanFunc) (tpccState, error) {
	st := tpccState{
		wYtd:      map[int64]float64{},
		dYtd:      map[district]float64{},
		dNextOID:  map[district]int64{},
		maxOID:    map[district]int64{},
		newOrders: map[district][]int64{},
	}
	reads := []struct {
		table string
		fn    func(types.Row)
	}{
		{tpcc.TWarehouse, func(r types.Row) { st.wYtd[r[tpcc.WID].I] = r[tpcc.WYtd].F }},
		{tpcc.TDistrict, func(r types.Row) {
			k := district{r[tpcc.DWID].I, r[tpcc.DID].I}
			st.dYtd[k] = r[tpcc.DYtd].F
			st.dNextOID[k] = r[tpcc.DNextOID].I
		}},
		{tpcc.TOrders, func(r types.Row) {
			k := district{r[tpcc.OWID].I, r[tpcc.ODID].I}
			if o := r[tpcc.OOID].I; o > st.maxOID[k] {
				st.maxOID[k] = o
			}
			st.olCntSum += r[tpcc.OOlCnt].I
		}},
		{tpcc.TNewOrder, func(r types.Row) {
			k := district{r[tpcc.NOWID].I, r[tpcc.NODID].I}
			st.newOrders[k] = append(st.newOrders[k], r[tpcc.NOOID].I)
		}},
		{tpcc.TOrderLine, func(types.Row) { st.orderLines++ }},
	}
	for _, rd := range reads {
		if err := scan(rd.table, rd.fn); err != nil {
			return st, fmt.Errorf("read %s: %w", rd.table, err)
		}
	}
	return st, nil
}

// checkTPCC tests the TPC-C consistency conditions, adapted to the per-row
// commits of the workload package, on the state after a run. before is
// the state after load; newOrders and rollbacks count the run's completed
// and intentionally rolled-back New-Order transactions. It returns one
// message per violated condition.
func checkTPCC(before, after tpccState, newOrders, rollbacks int64) []string {
	var bad []string
	for w, ytd := range after.wYtd {
		sum := 0.0
		for k, d := range after.dYtd {
			if k.w == w {
				sum += d
			}
		}
		if !floatsClose(ytd, sum) {
			bad = append(bad, fmt.Sprintf("warehouse %d: W_YTD %.4f != sum of D_YTD %.4f", w, ytd, sum))
		}
	}
	var advanced int64
	keys := make([]district, 0, len(after.dNextOID))
	for k := range after.dNextOID {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].w < keys[j].w || keys[i].w == keys[j].w && keys[i].d < keys[j].d
	})
	for _, k := range keys {
		next := after.dNextOID[k]
		advanced += next - before.dNextOID[k]
		if next-1 != after.maxOID[k] {
			bad = append(bad, fmt.Sprintf("district %d/%d: D_NEXT_O_ID-1 = %d, max(O_ID) = %d", k.w, k.d, next-1, after.maxOID[k]))
		}
		ids := append([]int64(nil), after.newOrders[k]...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if n := len(ids); n > 0 && (ids[n-1] != after.maxOID[k] || ids[n-1]-ids[0] != int64(n-1)) {
			bad = append(bad, fmt.Sprintf("district %d/%d: %d NEW-ORDER ids %d..%d are not contiguous up to max(O_ID) %d",
				k.w, k.d, n, ids[0], ids[n-1], after.maxOID[k]))
		}
	}
	if want := after.olCntSum - rollbacks; after.orderLines != want {
		bad = append(bad, fmt.Sprintf("count(ORDER_LINE) = %d, want sum(O_OL_CNT) - rollbacks = %d", after.orderLines, want))
	}
	if advanced != newOrders+rollbacks {
		bad = append(bad, fmt.Sprintf("district counters advanced by %d, want new-orders %d + rollbacks %d", advanced, newOrders, rollbacks))
	}
	return bad
}

// chCheck is one CH-benCHmark aggregate, the same one chbench.Queries
// runs, computed by exec on a workspace and recomputed by fold.
type chCheck struct {
	name   string
	table  string
	filter exec.Node
	keep   func(types.Row) bool
	group  []int
	aggs   []exec.AggSpec
}

func chChecks() []chCheck {
	all := func(types.Row) bool { return true }
	return []chCheck{
		{"ch-q1-pricing", tpcc.TOrderLine,
			exec.NewLeaf(tpcc.OLDeliveryD, vector.Gt, types.NewInt(-1)),
			func(r types.Row) bool { return r[tpcc.OLDeliveryD].I > -1 },
			[]int{tpcc.OLNumber},
			[]exec.AggSpec{{Func: exec.Sum, Col: tpcc.OLQuantity}, {Func: exec.Sum, Col: tpcc.OLAmount},
				{Func: exec.Avg, Col: tpcc.OLAmount}, {Func: exec.Count, Col: -1}}},
		{"ch-q6-revenue-band", tpcc.TOrderLine,
			exec.NewAnd(
				exec.NewLeaf(tpcc.OLQuantity, vector.Ge, types.NewInt(1)),
				exec.NewLeaf(tpcc.OLQuantity, vector.Le, types.NewInt(8)),
				exec.NewLeaf(tpcc.OLAmount, vector.Gt, types.NewFloat(1))),
			func(r types.Row) bool {
				q := r[tpcc.OLQuantity].I
				return q >= 1 && q <= 8 && r[tpcc.OLAmount].F > 1
			},
			nil, []exec.AggSpec{{Func: exec.Sum, Col: tpcc.OLAmount}}},
		{"ch-q5-district-revenue", tpcc.TOrderLine, nil, all,
			[]int{tpcc.OLWID, tpcc.OLDID},
			[]exec.AggSpec{{Func: exec.Sum, Col: tpcc.OLAmount}, {Func: exec.Count, Col: -1}}},
		{"ch-q12-carriers", tpcc.TOrders, nil, all,
			[]int{tpcc.OCarrierID},
			[]exec.AggSpec{{Func: exec.Count, Col: -1}, {Func: exec.Avg, Col: tpcc.OOlCnt}}},
	}
}

// fold computes a chCheck's grouped aggregates over rows in plain Go,
// keyed by the rendered group values.
func fold(c chCheck, rows []types.Row) map[string][]float64 {
	type acc struct {
		sum []float64
		n   []int64
	}
	groups := map[string]*acc{}
	for _, r := range rows {
		if !c.keep(r) {
			continue
		}
		key := groupKey(r, c.group)
		g := groups[key]
		if g == nil {
			g = &acc{sum: make([]float64, len(c.aggs)), n: make([]int64, len(c.aggs))}
			groups[key] = g
		}
		for i, a := range c.aggs {
			g.n[i]++
			if a.Col < 0 {
				continue
			}
			switch v := r[a.Col]; v.Type {
			case types.Int64:
				g.sum[i] += float64(v.I)
			case types.Float64:
				g.sum[i] += v.F
			}
		}
	}
	out := map[string][]float64{}
	for key, g := range groups {
		vals := make([]float64, len(c.aggs))
		for i, a := range c.aggs {
			switch a.Func {
			case exec.Count:
				vals[i] = float64(g.n[i])
			case exec.Sum:
				vals[i] = g.sum[i]
			case exec.Avg:
				vals[i] = g.sum[i] / float64(g.n[i])
			}
		}
		out[key] = vals
	}
	return out
}

func groupKey(r types.Row, cols []int) string {
	key := ""
	for _, c := range cols {
		key += r[c].String() + "|"
	}
	return key
}

// compareAggregates checks exec's grouped output (group columns first,
// then one column per aggregate) against a fold.
func compareAggregates(c chCheck, got []types.Row, want map[string][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d groups, fold has %d", c.name, len(got), len(want))
	}
	for _, r := range got {
		key := groupKey(r, seq(len(c.group)))
		w, ok := want[key]
		if !ok {
			return fmt.Errorf("%s: group %q not in fold", c.name, key)
		}
		for i := range c.aggs {
			v := r[len(c.group)+i]
			var x float64
			switch v.Type {
			case types.Int64:
				x = float64(v.I)
			case types.Float64:
				x = v.F
			default:
				return fmt.Errorf("%s: group %q aggregate %d is not a number: %v", c.name, key, i, v)
			}
			if !floatsClose(x, w[i]) {
				return fmt.Errorf("%s: group %q aggregate %d = %v, fold = %v", c.name, key, i, x, w[i])
			}
		}
	}
	return nil
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// checkCH runs each CH aggregate through exec on the given views and
// compares it with a fold over the rows scanned from the same views. It
// also checks the big-customer join count of ch-q18 the same way.
func checkCH(views func(string) ([]*core.View, error)) []string {
	var bad []string
	scan := viewsScanner(views)
	rowsOf := func(table string) []types.Row {
		var rows []types.Row
		if err := scan(table, func(r types.Row) { rows = append(rows, r.Clone()) }); err != nil {
			bad = append(bad, err.Error())
		}
		return rows
	}
	tables := map[string][]types.Row{
		tpcc.TOrderLine: rowsOf(tpcc.TOrderLine),
		tpcc.TOrders:    rowsOf(tpcc.TOrders),
		tpcc.TCustomer:  rowsOf(tpcc.TCustomer),
	}
	for _, c := range chChecks() {
		vs, err := views(c.table)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		got := exec.AggregateViews(vs, c.filter, c.group, c.aggs, nil)
		if err := compareAggregates(c, got, fold(c, tables[c.table])); err != nil {
			bad = append(bad, err.Error())
		}
	}
	// ch-q18: orders with at least 12 lines joined to their customers.
	customers := map[[3]int64]bool{}
	for _, r := range tables[tpcc.TCustomer] {
		customers[[3]int64{r[tpcc.CWID].I, r[tpcc.CDID].I, r[tpcc.CID].I}] = true
	}
	var big []types.Row
	want := 0
	for _, r := range tables[tpcc.TOrders] {
		if r[tpcc.OOlCnt].I >= 12 {
			big = append(big, r)
			if customers[[3]int64{r[tpcc.OWID].I, r[tpcc.ODID].I, r[tpcc.OCID].I}] {
				want++
			}
		}
	}
	cvs, err := views(tpcc.TCustomer)
	if err != nil {
		return append(bad, err.Error())
	}
	got := 0
	for _, v := range cvs {
		exec.EquiJoin(big, []int{tpcc.OCID}, v, []int{tpcc.CID}, nil, exec.JoinForceHash, nil, func(b, p types.Row) bool {
			if b[tpcc.OWID].I == p[tpcc.CWID].I && b[tpcc.ODID].I == p[tpcc.CDID].I {
				got++
			}
			return true
		})
	}
	if got != want {
		bad = append(bad, fmt.Sprintf("ch-q18-big-customers: join matched %d, fold %d", got, want))
	}
	return bad
}

// divergentRows counts rows present on one side but not the other, as
// whole-row multisets per table.
func divergentRows(a, b scanFunc, tables []string) (int, error) {
	total := 0
	for _, t := range tables {
		count := map[string]int{}
		if err := a(t, func(r types.Row) { count[string(types.EncodeKey(nil, r...))]++ }); err != nil {
			return 0, err
		}
		if err := b(t, func(r types.Row) { count[string(types.EncodeKey(nil, r...))]-- }); err != nil {
			return 0, err
		}
		for _, n := range count {
			if n < 0 {
				n = -n
			}
			total += n
		}
	}
	return total, nil
}
