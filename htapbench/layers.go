package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"

	"s2db"
	"s2db/internal/cluster"
)

// counters is a reading of the engine's own counters and of this
// process's resource use, or the sum of differences of readings.
type counters struct {
	flushes, moves, merges, mergeAborts, hydrations, indexProbes, segsEliminated int64

	vecHits, vecMisses int64
	qosWaits, qosSheds int64
	reconnects         int64
	stagerChunks       int64
	stagerSnapshots    int64

	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	wall       time.Duration // elapsed time of a sum of differences
	at         time.Time     // when a reading was taken
}

func readCounters(db *s2db.DB) counters {
	c := counters{at: time.Now()}
	cl := db.Cluster()
	for i := 0; i < cl.Partitions(); i++ {
		for _, t := range cl.Master(i).Tables() {
			st := &t.Stats
			c.flushes += st.Flushes.Load()
			c.moves += st.Moves.Load()
			c.merges += st.Merges.Load()
			c.mergeAborts += st.MergeAborts.Load()
			c.hydrations += st.Hydrations.Load()
			c.indexProbes += st.IndexProbes.Load()
			c.segsEliminated += st.SegmentsEliminated.Load()
		}
		_, chunks, snaps, _ := cl.Stager(i).Stats()
		c.stagerChunks += int64(chunks)
		c.stagerSnapshots += int64(snaps)
	}
	vs := db.VectorCacheStats().Total
	c.vecHits, c.vecMisses = vs.Hits, vs.Misses
	for _, ts := range db.QoSStats() {
		for _, rs := range []s2db.QoSResourceStats{ts.Workers, ts.ScanMem, ts.MergeIO, ts.WALBand} {
			c.qosWaits += rs.Waits
			c.qosSheds += rs.Sheds
		}
	}
	c.reconnects = int64(cl.LinkReconnects())
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes, c.gcCycles = ms.TotalAlloc, ms.NumGC
	return c
}

// add accumulates the difference b-a of two readings into c.
func (c *counters) add(a, b counters) {
	c.flushes += b.flushes - a.flushes
	c.moves += b.moves - a.moves
	c.merges += b.merges - a.merges
	c.mergeAborts += b.mergeAborts - a.mergeAborts
	c.hydrations += b.hydrations - a.hydrations
	c.indexProbes += b.indexProbes - a.indexProbes
	c.segsEliminated += b.segsEliminated - a.segsEliminated
	c.vecHits += b.vecHits - a.vecHits
	c.vecMisses += b.vecMisses - a.vecMisses
	c.qosWaits += b.qosWaits - a.qosWaits
	c.qosSheds += b.qosSheds - a.qosSheds
	c.reconnects += b.reconnects - a.reconnects
	c.stagerChunks += b.stagerChunks - a.stagerChunks
	c.stagerSnapshots += b.stagerSnapshots - a.stagerSnapshots
	c.cpu += b.cpu - a.cpu
	c.allocBytes += b.allocBytes - a.allocBytes
	c.gcCycles += b.gcCycles - a.gcCycles
	c.wall += b.at.Sub(a.at)
}

// layerMetrics fills the counter-based per-layer metrics from summed
// differences.
func layerMetrics(m map[string]float64, d counters) {
	m["core.flushes"] = float64(d.flushes)
	m["core.moves"] = float64(d.moves)
	m["core.merges"] = float64(d.merges)
	m["core.merge_aborts"] = float64(d.mergeAborts)
	m["core.hydrations"] = float64(d.hydrations)
	m["core.index_probes"] = float64(d.indexProbes)
	m["core.segments_eliminated"] = float64(d.segsEliminated)
	m["exec.veccache_hits"] = float64(d.vecHits)
	m["exec.veccache_misses"] = float64(d.vecMisses)
	if d.vecHits+d.vecMisses > 0 {
		m["exec.veccache_hit_rate"] = float64(d.vecHits) / float64(d.vecHits+d.vecMisses)
	}
	m["qos.waits"] = float64(d.qosWaits)
	m["qos.sheds"] = float64(d.qosSheds)
	m["cluster.link_reconnects"] = float64(d.reconnects)
	m["cluster.stager_chunks"] = float64(d.stagerChunks)
	m["cluster.stager_snapshots"] = float64(d.stagerSnapshots)
	m["runtime.cpu_s"] = d.cpu.Seconds()
	m["runtime.cores_busy"] = d.cpu.Seconds() / d.wall.Seconds()
	m["runtime.alloc_mib"] = float64(d.allocBytes) / (1 << 20)
	m["runtime.gc_cycles"] = float64(d.gcCycles)
}

// sampler polls heap use and replication lag while a round runs.
type sampler struct {
	heapPeak   uint64
	replLagMax int
	wsLag      []float64
}

const sampleEvery = 50 * time.Millisecond

// watch samples db, and ws when it is not nil, until the returned
// function is called; that function stops the sampling goroutine and
// waits for it to end.
func (s *sampler) watch(db *s2db.DB, ws *cluster.Workspace) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	s.sample(db, ws)
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.sample(db, ws)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		s.sample(db, ws)
	}
}

func (s *sampler) sample(db *s2db.DB, ws *cluster.Workspace) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > s.heapPeak {
		s.heapPeak = ms.HeapInuse
	}
	if lag := db.Cluster().ReplicationLag(); lag > s.replLagMax {
		s.replLagMax = lag
	}
	if ws != nil {
		s.wsLag = append(s.wsLag, float64(ws.Lag()))
	}
}

func (s *sampler) metrics(m map[string]float64) {
	m["heap_peak_mib"] = float64(s.heapPeak) / (1 << 20)
	m["cluster.repl_lag_records_max"] = float64(s.replLagMax)
	if len(s.wsLag) > 0 {
		m["cluster.workspace_lag_records_p50"] = median(s.wsLag)
		m["cluster.workspace_lag_records_max"] = quantile(s.wsLag, 1)
	}
}

// loadedHeapMiB is the heap in use once a database is loaded and the
// benchmark has dropped its own copy of the data: the least of three
// readings, each after a forced GC, 100 ms apart. Background work still in
// flight after a set-up only adds to a reading.
func loadedHeapMiB() float64 {
	least := uint64(0)
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if i == 0 || ms.HeapInuse < least {
			least = ms.HeapInuse
		}
	}
	return float64(least) / (1 << 20)
}
