// Command perfbench is the repository's benchmark. It trains the model
// exactly as vgend does by default, serves it through serve's HTTP
// handler (one engine, or a two-replica cluster fleet) on a loopback
// listener speaking cleartext HTTP/2, and drives it with a seeded load
// generator. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it repeats the load with spans recorded around each layer's
// public functions, replays the same requests one at a time through
// the decode layers, and prints the per-layer metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload eval-batch --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Every response is
// validated, and a run whose workload did not exercise what it was
// chosen for, or whose replay differs from what was served, reports
// correct=false. perfbench/README.md documents every workload and
// metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// runDeadline bounds a whole run; the benchmark contract allows 180s.
const runDeadline = 170 * time.Second

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "eval-batch", "workload: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 20, "measured seconds per load phase (BENCHMARK.json run_seconds)")
	traceFlag := fs.Int("trace", 0, "1 records spans and replays the load layer by layer; 0 measures end to end")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be at least 1\n")
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	b := &benchRun{w: w, seed: *seed, d: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1}
	// A wedged server must fail the run, not hang it.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if err := b.execute(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if b.traced {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.ndjson", w.name, *seed))
		if err := writeSpans(path, b.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	b.print(os.Stdout)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// benchRun is one invocation: set-up, warm-up, the measured phase and,
// when traced, the untraced comparison phase and the layer replay.
type benchRun struct {
	w      *workload
	seed   int64
	d      time.Duration
	traced bool
	tr     *tracer

	setups   []setupTimes
	measured *phaseResult
	compare  *phaseResult // traced runs: the same load shape, untraced
	replayed *replayStats
	spans    []span
	quality  quality
	// routerPicks are the fleet router's pick times in the traced phase.
	routerPicks []float64

	attempted, failed int
	metrics           []metric
	notes             []string
	problems          []string
}

func (b *benchRun) execute(ctx context.Context) error {
	in := newInputs(b.seed, descsNeeded(b.w, b.d))
	var tr *tracer
	if b.traced {
		tr = newTracer()
		b.tr = tr
	}
	m, st, setups, err := setUp(b.w, tr)
	if err != nil {
		return err
	}
	defer st.close()
	b.setups = setups
	runtime.GC()

	warm := b.w.warm(in)
	g := &loadgen{st: st, workload: b.w.name, part: "warm"}
	for _, o := range g.closedLoop(ctx, phase{
		closed: true, clients: evalClients, minSent: len(warm),
		next: func(i int) reqSpec { return warm[i] },
	}, 0) {
		if !o.ok() {
			return fmt.Errorf("warm-up: %v", o.err)
		}
	}

	if tr != nil {
		tr.on.Store(true)
	}
	b.measured = measure(ctx, st, b.w, b.w.phase(in, 0, b.d), b.d, "run")
	if tr != nil {
		tr.on.Store(false)
		if st.router != nil {
			st.router.mu.Lock()
			b.routerPicks = append([]float64(nil), st.router.picks...)
			st.router.mu.Unlock()
		}
		cmp := max(b.d/3, 5*time.Second)
		b.compare = measure(ctx, st, b.w, b.w.phase(in, 1, cmp), cmp, "cmp")
		st.close() // the replay runs alone in the process
		b.replayed, err = replay(ctx, m, warm, b.measured.outs, tr)
		if err != nil {
			return err
		}
		b.spans = tr.snapshot()
	} else {
		b.quality = judge(in, b.measured.outs)
	}
	b.derive()
	return nil
}

// print writes every metric by name with its unit, then the result
// line.
func (b *benchRun) print(w io.Writer) {
	fmt.Fprintf(w, "# workload %s seed %d, %s per phase, trace %v\n", b.w.name, b.seed, b.d, b.traced)
	if b.traced {
		printSelfTimes(w, b.spans)
	}
	for _, m := range b.metrics {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range b.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range b.problems {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", p)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]val{}}
	for _, m := range b.metrics {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	line, _ := json.Marshal(out) // plain floats and strings always marshal
	fmt.Fprintln(w, string(line))
}
