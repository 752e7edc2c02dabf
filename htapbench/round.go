package main

import (
	"fmt"
	"runtime"
	"time"

	"s2db"
)

// round is one measurement: a database set up once, loaded, and measured
// for the round's window. A run is several rounds, each in a process of
// its own (see runRounds).
type round struct {
	p     params
	setup float64 // seconds
	heap  float64 // MiB
	// d sums counter differences from the end of set-up to the end of the
	// round; w sums them over the timed window only.
	d, w  counters
	smp   sampler
	epoch time.Time
	recs  []*recorder
}

func newRound(p params) *round { return &round{p: p, epoch: time.Now()} }

// setUp generates the round's data, times load (which opens and fills a
// database), and reads the heap once the generator's copy is gone.
func (rd *round) setUp(gen func() (*captured, error), load func(*captured) (*s2db.DB, error)) (*s2db.DB, error) {
	data, err := gen()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	start := time.Now()
	db, err := load(data)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rd.setup = time.Since(start).Seconds()
	rd.heap = loadedHeapMiB()
	return db, nil
}

// recorder returns a new span recorder for one client of a traced run,
// nil otherwise.
func (rd *round) recorder() *recorder {
	if !rd.p.trace {
		return nil
	}
	r := newRecorder(rd.epoch, len(rd.recs))
	rd.recs = append(rd.recs, r)
	return r
}

// measure adds the counter differences of a round: a is read at the end
// of set-up, w0 at the start of the timed window and b at its end.
func (rd *round) measure(a, w0, b counters) {
	rd.d.add(a, b)
	rd.w.add(w0, b)
}

// finish fills the metrics every workload derives from its round.
func (rd *round) finish(out *outcome, lat *latencies, clients int) {
	out.m["setup_s"] = rd.setup
	out.m["heap_loaded_mib"] = rd.heap
	layerMetrics(out.m, rd.d)
	rd.smp.metrics(out.m)
	opMetrics(out.m, lat, rd.w)
	out.finishTrace(rd.p, rd.recs, rd.w.wall, clients)
}
