package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tokenizer"
)

// The model is trained exactly as vgend trains it with its defaults
// (-model codellama -scheme ours -items 3400 -seed 1).
const (
	trainItems = 3400
	trainSeed  = 1
	// tokenizerCorpus caps the examples the tokenizer trains on, as in
	// vgend.
	tokenizerCorpus = 1500
	// setupRepeats is how many times a run trains and starts the stack;
	// setup_s is the median.
	setupRepeats = 3
)

// setupTimes is one set-up, split by layer.
type setupTimes struct {
	corpus, tokenizer, train, serverUp time.Duration
}

func (s setupTimes) total() time.Duration { return s.corpus + s.tokenizer + s.train + s.serverUp }

// trainModel builds the corpus, the tokenizer and the model.
func trainModel() (*model.Model, setupTimes) {
	var st setupTimes
	t0 := time.Now()
	examples, _ := dataset.BuildCorpus(dataset.CorpusOptions{Seed: trainSeed, Items: trainItems})
	t1 := time.Now()
	var corpus []string
	for _, ex := range examples[:min(len(examples), tokenizerCorpus)] {
		corpus = append(corpus, model.FormatPrompt(ex.Prompt)+ex.Code)
	}
	cfg := model.CodeLlamaSim()
	tk := tokenizer.Train(corpus, cfg.VocabSize)
	t2 := time.Now()
	m := model.Train(tk, cfg, model.SchemeOurs, examples)
	t3 := time.Now()
	st.corpus, st.tokenizer, st.train = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return m, st
}

// engineConfig is vgend's default engine configuration.
func engineConfig() serve.Config {
	return serve.Config{
		QueueSize:       256,
		Scheduler:       serve.SchedContinuous,
		BatchSize:       8,
		BatchWindow:     2 * time.Millisecond,
		CacheSize:       512,
		PrefixCacheMode: serve.PrefixCacheTrie,
	}
}

// stack is the served system: a backend (one engine, or a fleet of
// engines) behind serve's HTTP handler on a loopback listener that
// speaks HTTP/1.1 and cleartext HTTP/2.
type stack struct {
	engines []*serve.Engine
	fleet   *cluster.Fleet
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	conns   *connCounter
	closed  bool
	// router times replica picks in traced fleet runs.
	router *timedRouter
}

// startStack serves m. With tr non-nil the handler and the backend are
// wrapped in the benchmark's span recorder.
func startStack(m *model.Model, w *workload, tr *tracer) (*stack, error) {
	st := &stack{conns: &connCounter{}}
	cfg := engineConfig()
	if tr != nil {
		cfg.StepFault = tr.observeSweep
	}
	var backend serve.Backend
	if w.replicas > 1 {
		specs := make([]cluster.ReplicaSpec, w.replicas)
		for i := range specs {
			specs[i] = cluster.ReplicaSpec{
				Name:   fmt.Sprintf("r%d:codellama/ours", i),
				Model:  m,
				Engine: cfg,
			}
		}
		router, err := cluster.NewRouter("prefix-affinity")
		if err != nil {
			return nil, err
		}
		if tr != nil {
			st.router = &timedRouter{Router: router, t: tr}
			router = st.router
		}
		fleet, err := cluster.New(specs, cluster.Config{Router: router})
		if err != nil {
			return nil, fmt.Errorf("start fleet: %w", err)
		}
		st.fleet, backend = fleet, fleet
		for _, r := range fleet.Replicas() {
			st.engines = append(st.engines, r.Engine())
		}
	} else {
		eng := serve.NewEngine(m, cfg)
		st.engines, backend = []*serve.Engine{eng}, eng
	}
	if tr != nil {
		backend = tr.wrapBackend(backend)
	}
	handler := serve.NewBackendServer(backend).Handler()
	if tr != nil {
		handler = tr.wrapHandler(handler)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.closeBackend()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	st.srv = &http.Server{
		Handler:           handler,
		Protocols:         &protos,
		ReadHeaderTimeout: 10 * time.Second,
		ConnState:         st.conns.observe,
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()

	var clientProtos http.Protocols
	clientProtos.SetUnencryptedHTTP2(true)
	st.client = &http.Client{Transport: &http.Transport{
		Protocols:       &clientProtos,
		MaxConnsPerHost: maxConns,
	}}
	if err := st.healthz(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// maxConns is the most connections the load generator may open (the
// CPUs of the reference machine).
const maxConns = 2

func (st *stack) healthz() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ProtoMajor != 2 {
		return fmt.Errorf("healthz: status %d over %s, want 200 over HTTP/2", resp.StatusCode, resp.Proto)
	}
	return nil
}

func (st *stack) closeBackend() {
	if st.fleet != nil {
		st.fleet.Close()
		return
	}
	for _, e := range st.engines {
		e.Close()
	}
}

// close shuts the HTTP server down, waits for Serve to return, then
// stops the backend.
func (st *stack) close() {
	if st.closed {
		return
	}
	st.closed = true
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = st.srv.Shutdown(ctx) // a handler still running after 10s is reported by the run's checks
		cancel()
		<-st.served
		st.client.CloseIdleConnections()
	}
	st.closeBackend()
}

// engineMetrics snapshots every engine of the stack.
func (st *stack) engineMetrics() []serve.Metrics {
	out := make([]serve.Metrics, len(st.engines))
	for i, e := range st.engines {
		out[i] = e.Metrics()
	}
	return out
}

// setUp trains and starts the stack setupRepeats times, keeping the
// last stack, and reports every set-up's timings.
func setUp(w *workload, tr *tracer) (*model.Model, *stack, []setupTimes, error) {
	var times []setupTimes
	for {
		m, t := trainModel()
		up := time.Now()
		st, err := startStack(m, w, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		t.serverUp = time.Since(up)
		times = append(times, t)
		if len(times) == setupRepeats {
			return m, st, times, nil
		}
		st.close()
		runtime.GC()
	}
}

// medianSeconds is the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	sort.Float64s(s)
	return quantile(s, 0.5)
}
