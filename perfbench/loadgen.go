package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// outcome is one request as the client saw it.
type outcome struct {
	spec reqSpec
	id   string
	// due is the scheduled send time (the actual send for a closed
	// loop); sent, first and end are when the request went out, the
	// first step line (or, unstreamed, the whole body) arrived, and the
	// last byte arrived.
	due, sent, first, end time.Time

	err error // transport or validation failure

	text        string
	tokens      int
	steps       int
	simMS       float64
	wallMS      float64
	queueMS     float64
	streamLines int
}

func (o *outcome) ok() bool { return o.err == nil }

// latencyMS is from the scheduled send to the last byte.
func (o *outcome) latencyMS() float64 { return ms(o.end.Sub(o.due)) }

// ttftMS is from the scheduled send to the first step line.
func (o *outcome) ttftMS() float64 { return ms(o.first.Sub(o.due)) }

// tpotMS is the time per output token after the first: streamed
// (latency - ttft) / (tokens - 1). An unstreamed response has no
// visible first token, so its per-token time is latency / tokens.
func (o *outcome) tpotMS() float64 {
	if !o.spec.stream {
		return o.latencyMS() / float64(max(o.tokens, 1))
	}
	if o.tokens < 2 {
		return 0
	}
	return (o.latencyMS() - o.ttftMS()) / float64(o.tokens-1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// wireLine mirrors serve's NDJSON stream line.
type wireLine struct {
	Step   int                   `json:"step"`
	Text   string                `json:"text"`
	Tokens int                   `json:"tokens"`
	Done   bool                  `json:"done"`
	Result *serve.GenerateResult `json:"result"`
	Error  string                `json:"error"`
}

// loadgen sends generated requests to one stack.
type loadgen struct {
	st       *stack
	workload string
	part     string
}

// send issues one request and validates the response: status 200, and
// for a stream, step lines numbered 1..n, a final done line whose
// result agrees with the stream (steps, text, token count), and a
// token count within the cap.
func (g *loadgen) send(ctx context.Context, spec reqSpec, due time.Time) *outcome {
	o := &outcome{spec: spec, due: due, id: fmt.Sprintf("%s-%s-%d", g.workload, g.part, spec.idx)}
	body, err := json.Marshal(serve.GenerateRequest{
		Prompt:       spec.prompt,
		Strategy:     spec.strategy,
		Temperature:  spec.temp,
		MaxNewTokens: spec.maxNew,
		Seed:         spec.seed,
		Stream:       spec.stream,
	})
	if err != nil {
		o.err = err
		return o
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.st.base+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("X-Request-ID", o.id)
	o.sent = time.Now()
	resp, err := g.st.client.Do(req)
	if err != nil {
		o.end = time.Now()
		o.err = fmt.Errorf("request %s: %w", o.id, err)
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		o.end = time.Now()
		o.err = fmt.Errorf("request %s: status %d: %s", o.id, resp.StatusCode, bytes.TrimSpace(msg))
		return o
	}
	var res *serve.GenerateResult
	if spec.stream {
		res, err = o.readStream(resp.Body)
	} else {
		var r serve.GenerateResult
		err = json.NewDecoder(resp.Body).Decode(&r)
		o.end = time.Now()
		o.first = o.end
		res = &r
	}
	if err == nil {
		err = o.check(res)
	}
	if err != nil {
		o.err = fmt.Errorf("request %s: %w", o.id, err)
	}
	return o
}

func (o *outcome) readStream(body io.Reader) (*serve.GenerateResult, error) {
	br := bufio.NewReader(body)
	var text bytes.Buffer
	rawTokens := 0
	var final *wireLine
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if o.first.IsZero() {
				o.first = time.Now()
			}
			var l wireLine
			if jerr := json.Unmarshal(line, &l); jerr != nil {
				return nil, fmt.Errorf("bad stream line: %w", jerr)
			}
			if final != nil {
				return nil, errors.New("stream continues after its done line")
			}
			if l.Done {
				final = &l
			} else {
				o.streamLines++
				if l.Step != o.streamLines {
					return nil, fmt.Errorf("step line %d numbered %d", o.streamLines, l.Step)
				}
				text.WriteString(l.Text)
				rawTokens += l.Tokens
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read stream: %w", err)
		}
	}
	o.end = time.Now()
	switch {
	case final == nil:
		return nil, errors.New("stream ended without a done line")
	case final.Error != "":
		return nil, fmt.Errorf("stream failed: %s", final.Error)
	case final.Result == nil:
		return nil, errors.New("done line carries no result")
	}
	res := final.Result
	if res.Steps != o.streamLines {
		return nil, fmt.Errorf("result reports %d steps, stream carried %d", res.Steps, o.streamLines)
	}
	if text.String() != res.Text {
		return nil, errors.New("streamed text differs from the result text")
	}
	if rawTokens < res.Tokens {
		return nil, fmt.Errorf("stream carried %d tokens, result reports %d clean tokens", rawTokens, res.Tokens)
	}
	return res, nil
}

// check validates a decoded result and copies it into the outcome.
func (o *outcome) check(res *serve.GenerateResult) error {
	if res.Tokens < 1 || res.Tokens > o.spec.maxNew {
		return fmt.Errorf("%d tokens outside [1, %d]", res.Tokens, o.spec.maxNew)
	}
	if res.Steps < 1 || res.SimulatedMS <= 0 {
		return fmt.Errorf("result reports %d steps and %.3f simulated ms", res.Steps, res.SimulatedMS)
	}
	if res.Cached {
		return errors.New("result served from the result cache")
	}
	o.text, o.tokens, o.steps = res.Text, res.Tokens, res.Steps
	o.simMS, o.wallMS, o.queueMS = res.SimulatedMS, res.WallMS, res.QueueMS
	return nil
}

// closedLoop runs clients that each send their next request only once
// the previous one completed, in index order, until d has passed and
// at least minSent requests were sent.
func (g *loadgen) closedLoop(ctx context.Context, ph phase, d time.Duration) []*outcome {
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var out []*outcome
	var wg sync.WaitGroup
	for c := 0; c < ph.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= ph.minSent && time.Since(start) >= d {
					return
				}
				o := g.send(ctx, ph.next(i), time.Now())
				o.due = o.sent
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends every scheduled request at its time, whether or not
// earlier ones have completed, and waits for all of them.
func (g *loadgen) openLoop(ctx context.Context, ph phase) (out []*outcome, late []float64) {
	start := time.Now()
	out = make([]*outcome, len(ph.reqs))
	late = make([]float64, len(ph.reqs))
	var wg sync.WaitGroup
	for i, spec := range ph.reqs {
		due := start.Add(spec.at)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := g.send(ctx, spec, due)
			out[i] = o
		}()
	}
	wg.Wait()
	for i, o := range out {
		if o == nil {
			out[i] = &outcome{spec: ph.reqs[i], err: ctx.Err()}
			continue
		}
		late[i] = ms(o.sent.Sub(o.due))
	}
	return out, late
}

// scraper polls the Prometheus exposition once a second until stop is
// closed, recording each scrape's time.
type scraper struct {
	ctx   context.Context
	st    *stack
	stop  chan struct{}
	done  chan struct{}
	times []float64
	err   error
}

func startScraper(ctx context.Context, st *stack) *scraper {
	s := &scraper{ctx: ctx, st: st, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *scraper) loop() {
	defer close(s.done)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, s.st.base+"/metrics?format=prometheus", nil)
		if err != nil {
			s.err = err
			return
		}
		resp, err := s.st.client.Do(req)
		if err != nil {
			s.err = fmt.Errorf("scrape: %w", err)
			return
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n == 0 {
			s.err = fmt.Errorf("scrape: status %d, %d bytes, %v", resp.StatusCode, n, err)
			return
		}
		s.times = append(s.times, ms(time.Since(t0)))
	}
}

// finish stops the scraper and waits for it.
func (s *scraper) finish() {
	close(s.stop)
	<-s.done
}

// connCounter counts the connections the server accepted.
type connCounter struct{ n atomic.Int64 }

func (c *connCounter) observe(_ net.Conn, state http.ConnState) {
	if state == http.StateNew {
		c.n.Add(1)
	}
}
