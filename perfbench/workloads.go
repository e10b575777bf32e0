package main

import (
	"math/rand"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/dataset"
)

// Seeds. Inputs are a pure function of the workload seed; the program
// under test only ever sees the generated requests.
const (
	// defaultSeed is the seed a run uses without --seed.
	defaultSeed = 1
	// heldOutSeed is kept out of tuning: a claimed gain must also hold
	// on it.
	heldOutSeed = 9001
)

// paperTemps are the sampling temperatures of the paper's pass@k
// protocol.
var paperTemps = []float64{0.2, 0.4, 0.6, 0.8}

// reqSpec is one generated request.
type reqSpec struct {
	idx      int
	prompt   string
	problem  int // index into bench.All(); -1 for a dataset description
	strategy string
	temp     float64
	maxNew   int
	seed     int64
	stream   bool
	// at is the scheduled send time from the phase start (open loop).
	at time.Duration
	// scored marks the requests sim_tokens_per_s and
	// core.tokens_per_step are taken over: a set fixed by the seed, so
	// both repeat exactly at a fixed seed.
	scored bool
	// eval marks the evaluation set syntax_rate and func_pass_rate are
	// judged on (see evalSeed).
	eval bool
}

// fullCap is the paper's token cap, used by eval-batch and by
// fleet-mixed's long requests.
const fullCap = 512

// phase is one stretch of generated load.
type phase struct {
	// closed selects a closed loop of clients pulling next(i) in index
	// order until the phase time is up and minSent requests were sent.
	closed  bool
	clients int
	next    func(i int) reqSpec
	minSent int
	// reqs is the open-loop schedule, ordered by at.
	reqs []reqSpec
}

// workload is one traffic mix. Every rate, client count and limit is a
// constant here, never derived from measured capacity, so a faster
// program never receives more load.
type workload struct {
	name string
	// replicas > 1 serves through a cluster fleet of that many engines.
	replicas int
	// scrape polls /metrics?format=prometheus once a second.
	scrape bool
	// ttftLimitMS and tpotLimitMS are the goodput limits: a request
	// counts toward goodput_rps only if it completed within both.
	ttftLimitMS, tpotLimitMS float64
	// lateBoundMS invalidates an open-loop run whose generator sent its
	// p99 request later than this after its scheduled time.
	lateBoundMS float64
	// warm is sent before measuring (distinct from every measured
	// request), so caches fill and lazy set-up finishes first.
	warm func(in *inputs) []reqSpec
	// phase builds the measured load: part 0 is the run's measured (and,
	// with --trace 1, traced) load, part 1 the untraced comparison load
	// of a traced run.
	phase func(in *inputs, part int, d time.Duration) phase
}

// inputs holds the seeded material every workload draws from.
type inputs struct {
	seed     int64
	problems []bench.Problem
	// descs are dataset descriptions generated from the seed, distinct
	// from each other and from every problem prompt; consumed in order.
	descs []string
}

// newInputs generates the run's inputs. descCount dataset descriptions
// are generated only when a workload needs them.
func newInputs(seed int64, descCount int) *inputs {
	in := &inputs{seed: seed, problems: bench.All()}
	if descCount == 0 {
		return in
	}
	seen := map[string]bool{}
	for _, p := range in.problems {
		seen[p.Prompt] = true
	}
	dsSeed := seed*7919 + 104729
	for items := 4 * descCount; len(in.descs) < descCount; items *= 2 {
		if dsSeed == trainSeed {
			dsSeed++
		}
		examples, _ := dataset.BuildCorpus(dataset.CorpusOptions{Seed: dsSeed, Items: items})
		for _, ex := range examples {
			d := strings.TrimSpace(ex.Prompt)
			if d == "" || seen[d] {
				continue
			}
			seen[d] = true
			in.descs = append(in.descs, d)
			if len(in.descs) == descCount {
				break
			}
		}
		dsSeed++
	}
	return in
}

// rng derives an independent stream for one (purpose, part) of the run.
func (in *inputs) rng(purpose, part int) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*1_000_003 + int64(purpose)*7_919 + int64(part)*104_729))
}

// reqSeed gives every request of a run its own decode seed, so the
// engine's result cache never short-circuits a measured request.
func (in *inputs) reqSeed(part, i int) int64 {
	return in.seed*10_000_000 + int64(part+1)*1_000_000 + int64(i)
}

// Workload constants.
const (
	evalClients = 2

	// chat-stream: chatClients closed-loop clients; the first
	// chatProblemEvery*46 requests interleave the problem prompts with
	// descriptions.
	chatClients      = 2
	chatProblemEvery = 4
	chatCap          = 256
	chatWarm         = 16
	chatWarmCap      = 64
	// chatMaxRate bounds the requests per second a run can send, which
	// sizes the description pool.
	chatMaxRate = 40

	// fleet-mixed: bursts of fleetBurst NTP requests every fleetPeriod
	// (plus up to fleetJitter). 1 in fleetLongEvery is a long decode
	// capped at fullCap (sent first in its burst); the rest are capped
	// at fleetShortCap and all ask about one hot problem, which prefix
	// affinity concentrates on one replica until it spills.
	fleetReplicas  = 2
	fleetBurst     = 40
	fleetPeriod    = 2 * time.Second
	fleetJitter    = 300 * time.Millisecond
	fleetShortCap  = 48
	fleetLongEvery = 8

	warmCap = 32
)

// evalSeed seeds the quality set: requests whose outputs are judged
// (syntax_rate, func_pass_rate) carry decode seeds fixed by this
// constant, not by the workload seed, so quality is measured on the
// same evaluation set in every run — a pass rate over a few hundred
// samples is far too noisy across seeds to bound — while everything
// around it (order, timing, the other prompts and seeds) follows the
// workload seed.
const evalSeed = 20250

// evalReqSeed is the decode seed of the k-th evaluation request of a
// phase part (parts differ so a traced run's comparison load never hits
// the result cache).
func evalReqSeed(part, k int) int64 { return int64(evalSeed+part)*1_000 + int64(k) }

var workloads = []*workload{
	{
		name:        "eval-batch",
		replicas:    1,
		ttftLimitMS: 220,
		tpotLimitMS: 3.5,
		warm:        problemWarmup,
		phase: func(in *inputs, part int, _ time.Duration) phase {
			perm := in.rng(1, part).Perm(len(in.problems))
			n := len(in.problems)
			evalN := n * len(paperTemps)
			return phase{
				closed:  true,
				clients: evalClients,
				minSent: scoredN(part, evalN+n),
				next: func(i int) reqSpec {
					// The first evalN requests are the evaluation set:
					// every problem at every paper temperature.
					p := perm[i%n]
					r := reqSpec{
						idx:      i,
						prompt:   in.problems[p].Prompt,
						problem:  p,
						strategy: "ours",
						temp:     paperTemps[(i/n)%len(paperTemps)],
						maxNew:   fullCap,
						seed:     in.reqSeed(part, i),
						scored:   i < evalN+n,
						eval:     i < evalN,
					}
					if r.eval {
						r.seed = evalReqSeed(part, p*len(paperTemps)+i/n)
					}
					return r
				},
			}
		},
	},
	{
		name:        "chat-stream",
		replicas:    1,
		ttftLimitMS: 10,
		tpotLimitMS: 3.5,
		warm: func(in *inputs) []reqSpec {
			var out []reqSpec
			for i := 0; i < chatWarm; i++ {
				out = append(out, reqSpec{
					idx: i, prompt: in.descs[i], problem: -1, strategy: chatStrategy(i),
					temp: paperTemps[i%len(paperTemps)], maxNew: chatWarmCap,
					seed: in.reqSeed(-1, i), stream: true,
				})
			}
			return out
		},
		phase: func(in *inputs, part int, d time.Duration) phase {
			// Every prompt is sent once: each problem prompt (the
			// evaluation set, every chatProblemEvery-th request) among
			// fresh dataset descriptions. The measured part draws
			// descriptions from the front of the pool, a traced run's
			// comparison part from the back.
			perm := in.rng(2, part).Perm(len(in.problems))
			evalN := len(in.problems) * chatProblemEvery
			descs := in.descs[chatWarm:]
			return phase{
				closed:  true,
				clients: chatClients,
				minSent: scoredN(part, evalN),
				next: func(i int) reqSpec {
					r := reqSpec{
						idx: i, strategy: chatStrategy(i), temp: paperTemps[(i/2)%len(paperTemps)],
						maxNew: chatCap, seed: in.reqSeed(part, i), stream: true, scored: i < evalN,
						problem: -1,
					}
					if i < evalN && i%chatProblemEvery == 0 {
						p := perm[i/chatProblemEvery]
						r.problem, r.prompt, r.eval = p, in.problems[p].Prompt, true
						r.seed = evalReqSeed(part, p)
						r.strategy, r.temp = chatStrategy(p), paperTemps[p%len(paperTemps)]
						return r
					}
					// Descriptions fill the slots the problems leave.
					k := (i - min(i/chatProblemEvery+1, len(in.problems))) % len(descs)
					if part > 0 {
						k = len(descs) - 1 - k
					}
					r.prompt = descs[k]
					return r
				},
			}
		},
	},
	{
		name:        "fleet-mixed",
		replicas:    fleetReplicas,
		scrape:      true,
		ttftLimitMS: 450,
		tpotLimitMS: 9.5,
		lateBoundMS: 50,
		warm:        problemWarmup,
		phase: func(in *inputs, part int, d time.Duration) phase {
			r := in.rng(3, part)
			// The long requests are the evaluation set: the problems in
			// a fixed order, each at a fixed seed.
			longOrder := rand.New(rand.NewSource(evalSeed)).Perm(len(in.problems))
			// Each burst's hot problem follows a fixed order too: which
			// problem is hot decides which replica the burst lands on,
			// and drawing it from the seed made runs differ more by
			// their draw than by the program.
			hotOrder := rand.New(rand.NewSource(evalSeed + 1)).Perm(len(in.problems))
			var reqs []reqSpec
			k := 0
			for t := time.Duration(0); t < d; t += fleetPeriod {
				at := t + time.Duration(r.Int63n(int64(fleetJitter)))
				if at >= d {
					break
				}
				hot := hotOrder[(int(t/fleetPeriod))%len(hotOrder)]
				for b := 0; b < fleetBurst; b++ {
					i := len(reqs)
					req := reqSpec{
						idx: i, problem: hot, strategy: "ntp", temp: paperTemps[i%len(paperTemps)],
						maxNew: fleetShortCap, seed: in.reqSeed(part, i),
						stream: true, at: at, scored: true,
					}
					if b < fleetBurst/fleetLongEvery {
						req.problem, req.maxNew, req.eval = longOrder[k%len(longOrder)], fullCap, true
						req.temp, req.seed = paperTemps[k%len(paperTemps)], evalReqSeed(part, k)
						k++
					}
					req.prompt = in.problems[req.problem].Prompt
					reqs = append(reqs, req)
				}
			}
			return phase{reqs: reqs}
		},
	},
}

// scoredN is how many requests a closed-loop phase sends at least: the
// scored set in the measured part, nothing extra in a traced run's
// comparison part.
func scoredN(part, n int) int {
	if part > 0 {
		return 0
	}
	return n
}

// chatStrategy alternates chat-stream's two tree strategies.
func chatStrategy(i int) string {
	if i%2 == 0 {
		return "ours-tree"
	}
	return "grammar-lookup-tree"
}

// problemWarmup sends every problem prompt once with a short cap.
func problemWarmup(in *inputs) []reqSpec {
	out := make([]reqSpec, len(in.problems))
	for i, p := range in.problems {
		out[i] = reqSpec{
			idx: i, prompt: p.Prompt, problem: i, strategy: "ours",
			temp: paperTemps[i%len(paperTemps)], maxNew: warmCap, seed: in.reqSeed(-1, i),
		}
	}
	return out
}

// descsNeeded is how many dataset descriptions a workload draws for a
// run of duration d.
func descsNeeded(w *workload, d time.Duration) int {
	if w.name != "chat-stream" {
		return 0
	}
	return chatWarm + 2*int(chatMaxRate*d.Seconds())
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
