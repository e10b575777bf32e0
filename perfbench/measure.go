package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// phaseResult is one measured stretch of load.
type phaseResult struct {
	outs []*outcome
	late []float64 // open loop: ms each request went out after its time
	open bool
	// start and end bound the window: from the first send to the last
	// byte of the last response.
	start, end time.Time

	mallocs, allocBytes uint64
	gcCycles            uint32
	gcCPU, totalCPU     float64
	heapPeak            uint64

	engBefore, engAfter     []serve.Metrics
	fleetBefore, fleetAfter cluster.Metrics

	scrapes   []float64
	scrapeErr error
	conns     int64
}

// readCPU reads the runtime's estimate of GC and total CPU seconds.
func readCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// heapSampler records the peak heap-object bytes, sampled every few
// milliseconds, until stopped.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// measure drives one phase of load against st and records everything
// the metrics are derived from.
func measure(ctx context.Context, st *stack, w *workload, ph phase, d time.Duration, part string) *phaseResult {
	r := &phaseResult{open: !ph.closed}
	g := &loadgen{st: st, workload: w.name, part: part}
	var scr *scraper

	r.engBefore = st.engineMetrics()
	if st.fleet != nil {
		r.fleetBefore = st.fleet.Metrics()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := readCPU()
	heap := startHeapSampler()
	if w.scrape {
		scr = startScraper(ctx, st)
	}
	r.start = time.Now()
	if ph.closed {
		r.outs = g.closedLoop(ctx, ph, d)
	} else {
		r.outs, r.late = g.openLoop(ctx, ph)
	}
	r.end = time.Now()
	for _, o := range r.outs {
		if o.end.After(r.end) {
			r.end = o.end
		}
	}
	if scr != nil {
		scr.finish()
		r.scrapes, r.scrapeErr = scr.times, scr.err
	}
	r.heapPeak = heap.finish()
	gc1, cpu1 := readCPU()
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcCPU, r.totalCPU = gc1-gc0, cpu1-cpu0
	r.engAfter = st.engineMetrics()
	if st.fleet != nil {
		r.fleetAfter = st.fleet.Metrics()
	}
	r.conns = st.conns.n.Load()
	return r
}
