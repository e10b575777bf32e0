package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
)

type metric struct {
	name, unit string
	value      float64
}

// quality is the scored outputs' quality, judged after the window.
type quality struct {
	judged, syntaxOK, funcJudged, funcOK int
	simMS                                float64
	scoredTokens                         int
}

// judge runs the paper's quality checks over the judged requests and
// totals the simulated cost of the scored set.
func judge(in *inputs, outs []*outcome) quality {
	var q quality
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		if o.spec.scored {
			q.simMS += o.simMS
			q.scoredTokens += o.tokens
		}
		if !o.spec.eval {
			continue
		}
		q.judged++
		if bench.CheckSyntax(o.text) {
			q.syntaxOK++
		}
		if o.spec.problem >= 0 {
			q.funcJudged++
			if bench.CheckFunction(o.text, in.problems[o.spec.problem]) {
				q.funcOK++
			}
		}
	}
	return q
}

// Exercise and coverage thresholds.
const (
	// backlogQueueMS separates queue waits: below it a request waited
	// at most for the sweep in flight (eval-batch's p99 must stay
	// below); above it requests waited behind a backlog (fleet-mixed's
	// p99 must exceed it).
	backlogQueueMS = 25.0
	// lowTrieHitFrac bounds a "prompts share no prefix" workload's
	// exact trie hits; highTrieHitFrac is the floor for a shared-prefix
	// one.
	lowTrieHitFrac  = 0.5
	highTrieHitFrac = 0.9
	// httpCoverage is the share of each request's client latency the
	// serve.http span must account for (median over requests).
	httpCoverage = 0.9
	// nestSlackNS allows for clock reads on different goroutines.
	nestSlackNS = int64(time.Millisecond)
	// replayCoverage is the share of the replayed decode wall that
	// BeginDecode + Steps + Finish must cover.
	replayCoverage = 0.95
)

func (b *benchRun) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *benchRun) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics = append(b.metrics, metric{name: name, unit: unit, value: v})
}

// derive computes the metrics of the run and runs every check.
func (b *benchRun) derive() {
	p := b.measured
	b.validate(p)
	if b.compare != nil {
		b.validate(b.compare)
	}
	ok := okOutcomes(p.outs)
	tokens := 0
	for _, o := range ok {
		tokens += o.tokens
	}
	window := p.end.Sub(p.start).Seconds()
	eng := engineDelta(p)

	// Exercise assertions: each workload must do the work it was
	// chosen for.
	queueP99 := pct(field(ok, queueOf), 0.99)
	exactHit := ratio(float64(eng.PrefixCacheHits), float64(eng.PrefixCacheHits+eng.PrefixCachePartialHits+eng.PrefixCacheMisses))
	switch b.w.name {
	case "eval-batch":
		if exactHit < highTrieHitFrac {
			b.fail("eval-batch: engine trie exact-hit fraction %.3f < %.2f", exactHit, highTrieHitFrac)
		}
		if queueP99 > backlogQueueMS {
			b.fail("eval-batch: queue wait p99 %.3f ms > %.1f ms", queueP99, backlogQueueMS)
		}
	case "chat-stream":
		if exactHit > lowTrieHitFrac {
			b.fail("chat-stream: engine trie exact-hit fraction %.3f > %.2f", exactHit, lowTrieHitFrac)
		}
		if eng.TreeNodes == 0 {
			b.fail("chat-stream: no draft-tree nodes proposed")
		}
	case "fleet-mixed":
		if queueP99 <= backlogQueueMS {
			b.fail("fleet-mixed: queue wait p99 %.3f ms <= %.1f ms", queueP99, backlogQueueMS)
		}
		if eng.Preemptions == 0 {
			b.fail("fleet-mixed: no preemptions")
		}
		if p.fleetAfter.SpillPicks == p.fleetBefore.SpillPicks {
			b.fail("fleet-mixed: no spills")
		}
	}

	if !b.traced {
		q := b.quality
		lat, ttft, tpot := field(ok, (*outcome).latencyMS), field(ok, (*outcome).ttftMS), field(ok, (*outcome).tpotMS)
		b.add("setup_s", "s", medianSeconds(setupTotals(b.setups)))
		b.add("latency_p50_ms", "ms", pct(lat, 0.5))
		b.add("latency_p90_ms", "ms", pct(lat, 0.9))
		b.add("ttft_p50_ms", "ms", pct(ttft, 0.5))
		b.add("ttft_p90_ms", "ms", pct(ttft, 0.9))
		b.add("tpot_p50_ms", "ms", pct(tpot, 0.5))
		good := 0
		for i := range ok {
			if ttft[i] <= b.w.ttftLimitMS && tpot[i] <= b.w.tpotLimitMS {
				good++
			}
		}
		// The tail around the goodput limits, for whoever re-tunes them.
		b.notes = append(b.notes, fmt.Sprintf("ttft p95/p99 %.1f/%.1f ms, tpot p95/p99 %.2f/%.2f ms, %d of %d within the goodput limits",
			pct(ttft, 0.95), pct(ttft, 0.99), pct(tpot, 0.95), pct(tpot, 0.99), good, len(p.outs)))
		goodWindow := window
		if p.open {
			goodWindow = b.d.Seconds()
		}
		b.add("goodput_rps", "1/s", float64(good)/goodWindow)
		b.add("wall_tokens_per_s", "1/s", float64(tokens)/window)
		b.add("sim_tokens_per_s", "1/s", float64(q.scoredTokens)/(q.simMS/1000))
		b.add("allocs_per_token", "count", ratio(float64(p.mallocs), float64(tokens)))
		b.add("bytes_per_token", "B", ratio(float64(p.allocBytes), float64(tokens)))
		b.add("heap_peak_mb", "MB", float64(p.heapPeak)/(1<<20))
		b.add("success_frac", "frac", ratio(float64(len(ok)), float64(len(p.outs))))
		b.add("syntax_rate", "frac", ratio(float64(q.syntaxOK), float64(q.judged)))
		b.add("func_pass_rate", "frac", ratio(float64(q.funcOK), float64(q.funcJudged)))
		return
	}
	b.deriveLayers(p, ok, tokens, eng, exactHit)
}

// validate checks one phase's validity: every request succeeded, the
// generator stayed within its connection and lateness bounds, and the
// scraper saw no error.
func (b *benchRun) validate(p *phaseResult) {
	for _, o := range p.outs {
		b.attempted++
		if !o.ok() {
			b.failed++
			if b.failed <= 5 {
				b.fail("%v", o.err)
			}
		}
	}
	if p.conns > maxConns {
		b.fail("load generator opened %d connections, more than %d", p.conns, maxConns)
	}
	if p.open && b.w.lateBoundMS > 0 {
		if late := pct(p.late, 0.99); late > b.w.lateBoundMS {
			b.fail("generator ran late: p99 %.1f ms > %.0f ms bound; the run is invalid", late, b.w.lateBoundMS)
		}
	}
	if p.scrapeErr != nil {
		b.fail("%v", p.scrapeErr)
	}
	if b.w.scrape && len(p.scrapes) == 0 {
		b.fail("no /metrics scrape completed")
	}
}

func (b *benchRun) deriveLayers(p *phaseResult, ok []*outcome, tokens int, eng serve.Metrics, exactHit float64) {
	rs := b.replayed
	spans := b.spans
	sentOK := len(ok)

	// loadgen
	b.add("loadgen.sent", "count", float64(len(p.outs)))
	b.add("loadgen.ok", "count", float64(sentOK))
	b.add("loadgen.failed", "count", float64(len(p.outs)-sentOK))
	b.add("loadgen.error_frac", "frac", ratio(float64(len(p.outs)-sentOK), float64(len(p.outs))))
	b.add("loadgen.late_ms_p99", "ms", pct(p.late, 0.99))
	b.add("loadgen.connections", "count", float64(p.conns))
	cmpOK := okOutcomes(b.compare.outs)
	traced := pct(field(ok, (*outcome).latencyMS), 0.5)
	untraced := pct(field(cmpOK, (*outcome).latencyMS), 0.5)
	b.add("loadgen.trace_overhead_frac", "frac", ratio(traced-untraced, untraced))

	// set-up
	var corpus, tk, train, up []time.Duration
	for _, s := range b.setups {
		corpus, tk, train, up = append(corpus, s.corpus), append(tk, s.tokenizer), append(train, s.train), append(up, s.serverUp)
	}
	b.add("dataset.build_corpus_s", "s", medianSeconds(corpus))
	b.add("tokenizer.train_s", "s", medianSeconds(tk))
	b.add("model.train_s", "s", medianSeconds(train))
	b.add("serve.start_s", "s", medianSeconds(up))

	// serve.http and serve.engine, from the HTTP spans.
	h := b.httpSpans(ok, spans)
	lines := 0
	streamed := 0
	for _, o := range ok {
		if o.spec.stream {
			streamed++
			lines += o.streamLines
		}
	}
	b.add("serve.http.overhead_ms_p50", "ms", pct(h.overheadMS, 0.5))
	b.add("serve.http.coverage_frac", "frac", pct(h.coverage, 0.5))
	b.add("serve.http.stream_lines_per_req", "count", ratio(float64(lines), float64(streamed)))
	b.add("serve.http.metrics_scrape_ms_p50", "ms", pct(p.scrapes, 0.5))
	b.add("serve.engine.queue_ms_p50", "ms", pct(field(ok, queueOf), 0.5))
	b.add("serve.engine.queue_ms_p99", "ms", pct(field(ok, queueOf), 0.99))
	b.add("serve.engine.decode_wall_ms_p50", "ms", pct(field(ok, func(o *outcome) float64 { return o.wallMS }), 0.5))
	b.add("serve.engine.coverage_frac", "frac", pct(h.engineCoverage, 0.5))
	b.add("serve.engine.admit_ms_p50", "ms", pct(h.admitMS, 0.5))
	b.add("serve.engine.trie_exact_hit_frac", "frac", exactHit)

	// serve.sched
	b.add("serve.sched.mean_batch", "count", eng.MeanSweepOccupancy)
	b.add("serve.sched.sweeps_per_token", "count", ratio(float64(eng.Sweeps), float64(tokens)))
	b.add("serve.sched.preemptions", "count", float64(eng.Preemptions))

	// cluster
	var hot, routed, attempts float64
	if b.w.replicas > 1 {
		for i, r := range p.fleetAfter.PerReplica {
			n := float64(r.Routed - p.fleetBefore.PerReplica[i].Routed)
			routed += n
			hot = max(hot, n)
			attempts += float64(r.Engine.Requests - p.fleetBefore.PerReplica[i].Engine.Requests)
		}
	}
	spill := float64(p.fleetAfter.SpillPicks - p.fleetBefore.SpillPicks)
	affine := float64(p.fleetAfter.AffinityPicks - p.fleetBefore.AffinityPicks)
	b.add("cluster.overhead_ms_p50", "ms", pct(b.routerPicks, 0.5))
	b.add("cluster.hot_replica_share", "frac", ratio(hot, routed))
	b.add("cluster.spill_frac", "frac", ratio(spill, spill+affine))
	b.add("cluster.attempts_per_req", "count", ratio(attempts, float64(p.fleetAfter.Requests-p.fleetBefore.Requests)))

	// tokenizer, model, core, core.spec, verilog: from the replay.
	b.add("tokenizer.encode_us_p50", "us", pct(rs.encodeUS, 0.5))
	b.add("tokenizer.decode_us_per_token", "us", ratio(rs.decodeUS, float64(rs.decodedTokens)))
	b.add("model.trie_acquire_us_p50", "us", pct(rs.acquireUS, 0.5))
	b.add("model.trie_hit_frac", "frac", ratio(float64(rs.exactHits), float64(rs.requests)))
	b.add("model.trie_tokens_saved_frac", "frac", ratio(float64(rs.savedTokens), float64(rs.promptTokens)))
	b.add("model.trie_bytes", "B", float64(rs.trieBytes))
	b.add("model.forward_us_p50", "us", pct(rs.forwardUS, 0.5))
	b.add("model.forward_allocs", "count", ratio(float64(rs.forwardMallocs), float64(rs.forwardCalls)))
	b.add("core.begin_decode_us_p50", "us", pct(rs.beginUS, 0.5))
	b.add("core.step_us_p50", "us", pct(rs.stepUS, 0.5))
	b.add("core.step_us_p99", "us", pct(rs.stepUS, 0.99))
	b.add("core.finish_us_p50", "us", pct(rs.finishUS, 0.5))
	b.add("core.tokens_per_step", "count", ratio(float64(rs.scoredTokens), float64(rs.scoredSteps)))
	b.add("core.steps_per_req", "count", ratio(float64(rs.steps), float64(rs.requests)))
	b.add("core.allocs_per_step", "count", ratio(float64(rs.decodeMallocs), float64(rs.steps)))
	b.add("core.coverage_frac", "frac", ratio(float64(rs.coveredNS), float64(rs.decodeNS)))
	b.add("core.spec.draft_screen_us_p50", "us", pct(rs.screenUS, 0.5))
	b.add("core.spec.tree_nodes_per_step", "count", ratio(float64(rs.treeNodes), float64(rs.steps)))
	b.add("core.spec.draft_accept_frac", "frac", ratio(float64(rs.draftSteps), float64(rs.steps)))
	b.add("core.spec.grammar_pruned_per_step", "count", ratio(float64(rs.grammarPruned), float64(rs.steps)))
	b.add("core.spec.frag_truncated_frac", "frac", ratio(float64(rs.truncated), float64(rs.truncated+rs.accepted)))
	b.add("verilog.check_us_p50", "us", pct(rs.checkUS, 0.5))

	// runtime
	b.add("runtime.gc_cpu_frac", "frac", ratio(p.gcCPU, p.totalCPU))
	b.add("runtime.gc_cycles_per_ktok", "count", ratio(float64(p.gcCycles), float64(tokens)/1000))

	// Replay checks: byte identity, coverage, and the replay's side of
	// the exercise assertions.
	for i, id := range rs.mismatches {
		if i == 5 {
			b.fail("... %d replay mismatches in all", len(rs.mismatches))
			break
		}
		b.fail("replayed text differs from the served text for %s", id)
	}
	if rs.requests != sentOK {
		b.fail("replayed %d of %d served requests", rs.requests, sentOK)
	}
	if c := ratio(float64(rs.coveredNS), float64(rs.decodeNS)); c < replayCoverage {
		b.fail("replay: BeginDecode+Step+Finish cover %.3f of the decode wall, want >= %.2f", c, replayCoverage)
	}
	hit := ratio(float64(rs.exactHits), float64(rs.requests))
	switch b.w.name {
	case "eval-batch":
		if hit < highTrieHitFrac {
			b.fail("eval-batch: replay trie hit fraction %.3f < %.2f", hit, highTrieHitFrac)
		}
	case "chat-stream":
		if hit > lowTrieHitFrac {
			b.fail("chat-stream: replay trie hit fraction %.3f > %.2f", hit, lowTrieHitFrac)
		}
		if rs.treeNodes == 0 {
			b.fail("chat-stream: replay proposed no draft-tree nodes")
		}
	}
}

// httpLayers are per-request numbers read off the HTTP spans.
type httpLayers struct {
	overheadMS, coverage, engineCoverage, admitMS []float64
}

// httpSpans matches every served request with its serve.http and
// serve.backend spans and checks that they nest inside the client's
// view and account for its latency.
func (b *benchRun) httpSpans(ok []*outcome, spans []span) httpLayers {
	type pair struct{ http, backend *span }
	byReq := map[string]*pair{}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "serve.http":
			byReq[s.Req] = &pair{http: s}
		case "serve.backend":
			if pr := byReq[s.Req]; pr != nil {
				pr.backend = s
			}
		}
	}
	epoch := b.tr.epoch
	var h httpLayers
	nestErrs := 0
	for _, o := range ok {
		pr := byReq[o.id]
		if pr == nil || pr.backend == nil {
			b.fail("request %s has no serve.http/serve.backend spans", o.id)
			continue
		}
		hs, bs := pr.http, pr.backend
		sent, end := int64(o.sent.Sub(epoch)), int64(o.end.Sub(epoch))
		if !(sent <= hs.Start+nestSlackNS && hs.Start <= bs.Start && bs.End <= hs.End && hs.End <= end+nestSlackNS) {
			nestErrs++
		}
		backendMS := ms(bs.dur())
		parts := bs.Attrs["queue_ms"] + bs.Attrs["wall_ms"]
		if parts > backendMS+1 {
			b.fail("request %s: queue+decode wall %.3f ms exceed the backend call %.3f ms", o.id, parts, backendMS)
		}
		h.overheadMS = append(h.overheadMS, ms(hs.dur()-bs.dur()))
		h.coverage = append(h.coverage, ratio(float64(hs.dur()), float64(end-sent)))
		h.engineCoverage = append(h.engineCoverage, ratio(parts, backendMS))
		if first, okF := bs.Attrs["first_sweep_ns"]; okF {
			// From entering the backend to the decode's first sweep, less
			// queue wait: routing (fleet), submission, the wait for the
			// sweep's earlier decodes, and decode set-up.
			h.admitMS = append(h.admitMS, ms(time.Duration(int64(first)-bs.Start))-bs.Attrs["queue_ms"])
		}
	}
	if nestErrs > 0 {
		b.fail("%d requests' spans do not nest inside the client's send..last byte", nestErrs)
	}
	if c := pct(h.coverage, 0.5); c < httpCoverage {
		b.fail("serve.http spans cover %.3f of client latency (median), want >= %.2f", c, httpCoverage)
	}
	return h
}

// engineDelta sums the engines' counter deltas over a phase. Only the
// counters the metrics use are carried; MeanSweepOccupancy is
// recomputed over the phase.
func engineDelta(p *phaseResult) serve.Metrics {
	var d serve.Metrics
	var swept float64
	for i, a := range p.engAfter {
		z := p.engBefore[i]
		d.PrefixCacheHits += a.PrefixCacheHits - z.PrefixCacheHits
		d.PrefixCachePartialHits += a.PrefixCachePartialHits - z.PrefixCachePartialHits
		d.PrefixCacheMisses += a.PrefixCacheMisses - z.PrefixCacheMisses
		d.TreeNodes += a.TreeNodes - z.TreeNodes
		d.Preemptions += a.Preemptions - z.Preemptions
		d.Sweeps += a.Sweeps - z.Sweeps
		swept += float64(a.Sweeps)*a.MeanSweepOccupancy - float64(z.Sweeps)*z.MeanSweepOccupancy
	}
	d.MeanSweepOccupancy = ratio(swept, float64(d.Sweeps))
	return d
}

func okOutcomes(outs []*outcome) []*outcome {
	var ok []*outcome
	for _, o := range outs {
		if o.ok() {
			ok = append(ok, o)
		}
	}
	return ok
}

func queueOf(o *outcome) float64 { return o.queueMS }

func field(outs []*outcome, f func(*outcome) float64) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = f(o)
	}
	return v
}

// pct is the q-quantile of v (linear interpolation), 0 for no samples.
func pct(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, q)
}

// quantile interpolates the q-quantile of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func setupTotals(s []setupTimes) []time.Duration {
	out := make([]time.Duration, len(s))
	for i, t := range s {
		out[i] = t.total()
	}
	return out
}
