package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// span is one timed call into a layer, recorded by the benchmark
// around the program's public functions. Times are nanoseconds since
// the tracer's epoch.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for a root span
	Name   string             `json:"name"`
	Req    string             `json:"req"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run
// ends. HTTP-side spans are recorded only while on is set.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns its ID.
func (t *tracer) open(name, req string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start})
	return id
}

// close ends span id, attaching attrs.
func (t *tracer) close(id int, attrs map[string]float64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	t.spans[id].Attrs = attrs
}

// add records a span whose times the caller measured.
func (t *tracer) add(name, req string, parent int, start, end time.Time, attrs map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Attrs: attrs,
	})
	return id
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reqCtx carries one traced request's span through the request
// context, and collects when its decode first took part in a sweep.
type reqCtx struct {
	id         string
	span       int
	firstSweep atomic.Int64 // ns since the tracer's epoch; 0 until then
}

type reqCtxKey struct{}

// wrapHandler records a serve.http span around every /v1/generate
// request while tracing is on.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/v1/generate" {
			h.ServeHTTP(w, r)
			return
		}
		rc := &reqCtx{id: r.Header.Get("X-Request-ID")}
		rc.span = t.open("serve.http", rc.id, -1)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqCtxKey{}, rc)))
		t.close(rc.span, nil)
	})
}

// tracedBackend records a serve.backend span around each generation,
// with the response's queue and decode wall times and the decode's
// first sweep attached.
type tracedBackend struct {
	serve.Backend
	t *tracer
}

func (t *tracer) wrapBackend(b serve.Backend) serve.Backend { return tracedBackend{Backend: b, t: t} }

func (b tracedBackend) TryGenerate(ctx context.Context, req serve.Request) (*serve.Response, error) {
	rc, _ := ctx.Value(reqCtxKey{}).(*reqCtx)
	if rc == nil {
		return b.Backend.TryGenerate(ctx, req)
	}
	id := b.t.open("serve.backend", rc.id, rc.span)
	resp, err := b.Backend.TryGenerate(ctx, req)
	attrs := map[string]float64{}
	if resp != nil {
		attrs["queue_ms"] = ms(resp.QueueWait)
		attrs["wall_ms"] = ms(resp.Wall)
	}
	if first := rc.firstSweep.Load(); first > 0 {
		attrs["first_sweep_ns"] = float64(first)
	}
	b.t.close(id, attrs)
	return resp, err
}

// observeSweep is installed as the engines' per-sweep hook in traced
// runs: it never fails a decode, it only notes when each traced
// request's decode first took part in a sweep.
func (t *tracer) observeSweep(ctx context.Context) error {
	if rc, _ := ctx.Value(reqCtxKey{}).(*reqCtx); rc != nil {
		rc.firstSweep.CompareAndSwap(0, t.now())
	}
	return nil
}

// selfTimes sums each span name's self time: its duration less the
// part its children cover (children of one span do not overlap).
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].dur()
		}
	}
	out := map[string]time.Duration{}
	for i := range spans {
		out[spans[i].Name] += spans[i].dur() - child[i]
	}
	return out
}

// writeSpans writes spans as NDJSON to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the per-layer self-time table.
func printSelfTimes(w io.Writer, spans []span) {
	st := selfTimes(spans)
	counts := map[string]int{}
	for i := range spans {
		counts[spans[i].Name]++
	}
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# span self time\n")
	for _, n := range names {
		fmt.Fprintf(w, "#   %-22s %8d spans %12.3f ms self\n", n, counts[n], ms(st[n]))
	}
}

// timedRouter records how long the fleet's router takes to pick a
// replica, while tracing is on.
type timedRouter struct {
	cluster.Router
	t     *tracer
	mu    sync.Mutex
	picks []float64 // ms
}

func (r *timedRouter) Pick(key string, candidates []*cluster.Replica) *cluster.Replica {
	if !r.t.on.Load() {
		return r.Router.Pick(key, candidates)
	}
	t0 := time.Now()
	rep := r.Router.Pick(key, candidates)
	d := ms(time.Since(t0))
	r.mu.Lock()
	r.picks = append(r.picks, d)
	r.mu.Unlock()
	return rep
}

// Stats forwards the prefix-affinity router's affine/spill split, which
// the fleet's metrics read through this interface.
func (r *timedRouter) Stats() (affine, spill uint64) {
	if rs, ok := r.Router.(interface{ Stats() (uint64, uint64) }); ok {
		return rs.Stats()
	}
	return 0, 0
}
