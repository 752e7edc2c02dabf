// Command placement prints which of two partitions each TPC-C warehouse
// lands on. The engine hashes shard keys with a seed drawn anew in every
// process, so running it twice can print two different placements (known
// fault F5 in ../README.md):
//
//	cd htapbench && for i in 1 2 3 4; do go run ./placement; done
package main

import (
	"fmt"
	"os"

	"s2db"
	"s2db/internal/types"
	"s2db/internal/workload/tpcc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "placement:", err)
		os.Exit(1)
	}
}

func run() error {
	db, err := s2db.Open(s2db.Config{Partitions: 2, SyncReplicas: 1})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.CreateTable(tpcc.TWarehouse, tpcc.Schemas()[tpcc.TWarehouse]); err != nil {
		return err
	}
	for w := int64(1); w <= 2; w++ {
		row := s2db.Row{types.NewInt(w), types.NewString("w"), types.NewFloat(0), types.NewFloat(0)}
		if err := db.Insert(tpcc.TWarehouse, row); err != nil {
			return err
		}
	}
	for i := 0; i < db.Cluster().Partitions(); i++ {
		t, err := db.Cluster().Master(i).Table(tpcc.TWarehouse)
		if err != nil {
			return err
		}
		var ws []int64
		t.Snapshot().ScanBuffer(func(r types.Row) bool {
			ws = append(ws, r[tpcc.WID].I)
			return true
		})
		fmt.Printf("partition %d: warehouses %v\n", i, ws)
	}
	return nil
}
