package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/model"
)

// replayStats is what the single-threaded layer replay measured.
type replayStats struct {
	requests int
	// Per-call samples, microseconds.
	encodeUS, acquireUS, beginUS, stepUS, finishUS, forwardUS, screenUS, checkUS []float64
	// decodeUS and decodedTokens time tokenizer.DecodeClean over whole
	// outputs.
	decodeUS      float64
	decodedTokens int

	exactHits, promptTokens, savedTokens int
	trieBytes                            int64

	steps, rawTokens, treeNodes, grammarPruned, truncated, accepted, draftSteps int
	scoredSteps, scoredTokens                                                   int

	decodeMallocs, forwardMallocs uint64
	forwardCalls                  int

	// coveredNS is begin + steps + finish; decodeNS the decode's wall
	// time from BeginDecode's start to Finish's end.
	coveredNS, decodeNS int64

	mismatches []string
}

// replay re-runs a phase's requests one at a time through the layers
// the engine composes: model.CanonicalPromptIDs, a decoder over a fresh
// trie session cache (warmed with the warm-up prompts, as the served
// engine was), BeginDecode/Step/Finish, then Gen.Forward (BaseDist for
// drafters without heads) on every step's prefix from a
// TrieCache.Acquire lease, and bench.CheckSyntax. Each replayed text
// must equal the served text byte for byte.
func replay(ctx context.Context, m *model.Model, warm []reqSpec, served []*outcome, tr *tracer) (*replayStats, error) {
	tok := m.Tokenizer()
	trie := model.NewTrieCache(0)
	dec := core.NewDecoder(m).WithSessionCache(trie)
	for _, w := range warm {
		trie.Acquire(m, model.CanonicalPromptIDs(tok, w.prompt)).Release()
	}
	rs := &replayStats{}
	var ms0, ms1 runtime.MemStats
	for _, o := range served {
		if !o.ok() {
			continue
		}
		spec := o.spec
		rs.requests++
		root := tr.open("replay.request", o.id, -1)

		t0 := time.Now()
		ids := model.CanonicalPromptIDs(tok, spec.prompt)
		t1 := time.Now()
		tr.add("tokenizer.encode", o.id, root, t0, t1, nil)
		rs.encodeUS = append(rs.encodeUS, us(t1.Sub(t0)))

		cached := trie.CachedPrefixLen(ids)
		rs.promptTokens += len(ids)
		rs.savedTokens += cached
		if cached == len(ids) {
			rs.exactHits++
		}
		t0 = time.Now()
		lease := trie.Acquire(m, ids)
		t1 = time.Now()
		tr.add("model.trie_acquire", o.id, root, t0, t1, map[string]float64{"cached_tokens": float64(cached)})
		rs.acquireUS = append(rs.acquireUS, us(t1.Sub(t0)))

		opts := core.Options{
			Strategy:     spec.strategy,
			Temperature:  spec.temp,
			MaxNewTokens: spec.maxNew,
			Seed:         spec.seed,
		}.Canonical()
		strat, err := core.ResolveStrategy(opts.Strategy, false)
		if err != nil {
			lease.Release()
			return nil, err
		}
		var emitted []int
		onStep := func(ev core.StepEvent) { emitted = append(emitted, len(ev.Tokens)) }

		runtime.ReadMemStats(&ms0)
		decode := tr.open("core.decode", o.id, root)
		t0 = time.Now()
		st, err := dec.BeginDecode(ctx, ids, opts, onStep)
		if err != nil {
			lease.Release()
			return nil, err
		}
		t1 = time.Now()
		tr.add("core.begin_decode", o.id, decode, t0, t1, nil)
		rs.beginUS = append(rs.beginUS, us(t1.Sub(t0)))
		decodeStart, covered := t0, t1.Sub(t0)
		var stepDur []time.Duration
		for done := false; !done; {
			t0 = time.Now()
			done = st.Step()
			t1 = time.Now()
			tr.add("core.step", o.id, decode, t0, t1, nil)
			stepDur = append(stepDur, t1.Sub(t0))
			covered += t1.Sub(t0)
		}
		t0 = time.Now()
		res, err := st.Finish()
		t1 = time.Now()
		tr.add("core.finish", o.id, decode, t0, t1, nil)
		tr.close(decode, nil)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			lease.Release()
			return nil, fmt.Errorf("replay %s: %w", o.id, err)
		}
		rs.finishUS = append(rs.finishUS, us(t1.Sub(t0)))
		covered += t1.Sub(t0)
		rs.coveredNS += int64(covered)
		rs.decodeNS += int64(t1.Sub(decodeStart))
		rs.decodeMallocs += ms1.Mallocs - ms0.Mallocs

		// Stepping a decode to completion always emits one event per
		// step, after the step's forward pass over the sequence so far.
		if len(emitted) != len(stepDur) || len(emitted) != res.Steps {
			lease.Release()
			return nil, fmt.Errorf("replay %s: %d step events for %d steps", o.id, len(emitted), res.Steps)
		}
		gen := lease.Gen()
		seq := append([]int(nil), ids...)
		pos := 0
		runtime.ReadMemStats(&ms0)
		for k, n := range emitted {
			t0 = time.Now()
			if strat.Drafter.NeedsHeads() {
				_ = gen.Forward(seq)
			} else {
				_ = gen.BaseDist(seq)
			}
			t1 = time.Now()
			tr.add("model.forward", o.id, root, t0, t1, nil)
			fw := t1.Sub(t0)
			rs.forwardUS = append(rs.forwardUS, us(fw))
			rs.stepUS = append(rs.stepUS, us(stepDur[k]))
			rs.screenUS = append(rs.screenUS, max(0, us(stepDur[k]-fw)))
			seq = append(seq, res.Tokens[pos:pos+n]...)
			pos += n
		}
		runtime.ReadMemStats(&ms1)
		lease.Release()
		rs.forwardMallocs += ms1.Mallocs - ms0.Mallocs
		rs.forwardCalls += len(emitted)

		t0 = time.Now()
		text := tok.DecodeClean(res.Tokens)
		t1 = time.Now()
		tr.add("tokenizer.decode", o.id, root, t0, t1, nil)
		rs.decodeUS += us(t1.Sub(t0))
		rs.decodedTokens += len(res.Tokens)

		t0 = time.Now()
		_ = bench.CheckSyntax(text)
		t1 = time.Now()
		tr.add("verilog.check", o.id, root, t0, t1, nil)
		rs.checkUS = append(rs.checkUS, us(t1.Sub(t0)))
		tr.close(root, nil)

		if wire := jsonRoundTrip(res.Text); wire != o.text {
			rs.mismatches = append(rs.mismatches, o.id)
		}
		rs.steps += res.Steps
		rs.rawTokens += len(res.Tokens)
		rs.treeNodes += res.TreeNodes
		rs.grammarPruned += res.GrammarPruned
		rs.truncated += res.TruncatedTokens
		for _, a := range res.AcceptedPerStep {
			rs.accepted += a
			if a > 1 {
				rs.draftSteps++
			}
		}
		if spec.scored {
			rs.scoredSteps += res.Steps
			rs.scoredTokens += len(res.Tokens)
		}
	}
	rs.trieBytes = trie.Bytes()
	return rs, nil
}

// jsonRoundTrip renders s as the HTTP layer's JSON encoding delivers
// it (invalid UTF-8 becomes U+FFFD).
func jsonRoundTrip(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	var out string
	_ = json.Unmarshal(b, &out)
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
