package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/obs"
	"harpocrates/internal/stats"
	"harpocrates/internal/uarch"
)

// The evolve workload: one op is a round of the GA loop run on the IRF
// preset and then on the IntMul preset (HARPO_SCALE=1 shapes) with a
// fixed iteration budget, grading in process. Each round has its own GA
// seed (itemSeed; they repeat after evolveItems rounds). Latency is one
// round, not one loop step: the steps of the two presets, and IRF steps
// with and without memo hits, form separate modes, and the median step
// moved between them from run to run.
const (
	evolveItems      = 64
	evolveMinRound   = 8 // rounds every run completes; their digests are pinned
	evolveIRFIters   = 16
	evolveMulIters   = 8
	evolveTailPct    = 75
	evolveMinSamples = 40 // rounds, so the p75 tail has ten beyond it
)

type evolve struct {
	seeds   []uint64
	presets []core.Options
	reg     *obs.Registry
	done    digestSet
}

func (e *evolve) describe() workloadInfo {
	return workloadInfo{
		throughput: "evolve.programs_per_s",
		latency:    "evolve.round_latency",
		quality:    "evolve.best_fitness",
		tailPct:    evolveTailPct,
		minOps:     evolveMinRound,
		minSamples: evolveMinSamples,
		refItems:   1,
	}
}

func (e *evolve) setup(seed uint64, reg *obs.Registry) error {
	e.reg = reg
	e.seeds = e.seeds[:0]
	for k := 0; k < evolveItems; k++ {
		e.seeds = append(e.seeds, itemSeed(seed, k))
	}
	irf := core.PresetFor(coverage.IRF, 1)
	irf.Iterations = evolveIRFIters
	mul := core.PresetFor(coverage.IntMul, 1)
	mul.Iterations = evolveMulIters
	e.presets = []core.Options{irf, mul}
	// Warm the lazy variant pool and the simulator's pooled core state:
	// grade one genotype per preset.
	rng := rand.New(rand.NewPCG(seed, 1))
	for _, o := range e.presets {
		cfg := uarch.DefaultConfig()
		cfg.TrackIRF, cfg.TrackIBR = true, true
		core.GradeGenotype(gen.NewRandom(&o.Gen, rng), &o.Gen, cfg, coverage.MetricFor(o.Structure))
	}
	return nil
}

func (e *evolve) teardown() {}

func (e *evolve) digests() map[int]uint64 { return e.done.snapshot() }

func (e *evolve) measure(ph *phase) error {
	defer ph.watchHeap()()
	var ob *obs.Observer
	if e.reg != nil {
		ob = obs.New(e.reg, nil)
	}
	for i := 0; ph.more(i, len(ph.lat)); i++ {
		k := i % evolveItems
		round := ph.tr.begin(ph.root, "evolve.round", "bench")
		t0 := time.Now()
		h := stats.HashInit
		var best float64
		var err error
		for _, preset := range e.presets {
			var res *core.Result
			res, err = e.runOne(ph, round, preset, e.seeds[k], ob)
			if err != nil {
				break
			}
			h = stats.Mix64(h, res.Best.G.Hash())
			h = floatBits(h, res.History.Best...)
			h = stats.Mix64(h, uint64(res.History.EvaluatedPrograms))
			best += res.Best.Fitness / float64(len(e.presets))
			ph.work += float64(res.History.EvaluatedPrograms)
		}
		lat := time.Since(t0).Seconds()
		if err == nil {
			err = e.done.record(k, h)
		}
		round.end()
		ph.ops++
		if err != nil {
			ph.fail("evolve round %d: %v", i, err)
			continue
		}
		ph.lat = append(ph.lat, lat)
		if k == 0 {
			ph.quality = best
		}
	}
	return nil
}

// runOne runs the GA loop once and checks its history: one best value
// per iteration, never decreasing (elites survive), and the graded
// program count the GA shape implies.
func (e *evolve) runOne(ph *phase, parent *span, o core.Options, seed uint64, ob *obs.Observer) (*core.Result, error) {
	o.Seed = seed
	o.Obs = ob
	var before phaseTimes
	if ob != nil {
		before = readPhaseTimes(e.reg)
	}
	sp := ph.tr.begin(parent, "core.Run", "core")
	res, err := core.Run(o)
	sp.end()
	if err != nil {
		return nil, err
	}
	hist := res.History
	if len(hist.Best) != o.Iterations {
		return nil, fmt.Errorf("%v: %d best values for %d iterations", o.Structure, len(hist.Best), o.Iterations)
	}
	for i := 1; i < len(hist.Best); i++ {
		if hist.Best[i] < hist.Best[i-1] {
			return nil, fmt.Errorf("%v: best fitness fell at iteration %d", o.Structure, i)
		}
	}
	if want := o.PopSize + (o.Iterations-1)*o.TopK*o.MutantsPerParent; hist.EvaluatedPrograms != want ||
		hist.CacheHits > want || res.Best.Fitness != hist.Best[len(hist.Best)-1] {
		return nil, fmt.Errorf("%v: %d programs graded (%d memo hits), want %d", o.Structure,
			hist.EvaluatedPrograms, hist.CacheHits, want)
	}
	if ob != nil {
		e.account(ph, sp, hist, readPhaseTimes(e.reg).minus(before))
	}
	return res, nil
}

// account adds one run's History and phase timers to the layer figures
// and lays the run's phases out under its span. The evaluate phase is
// split between gen, prog and uarch in the proportions History.Times
// records for materialize, encode and simulate.
func (e *evolve) account(ph *phase, sp *span, hist *core.History, pt phaseTimes) {
	t := hist.Times
	ph.add("hist.generation_s", t.Generation.Seconds())
	ph.add("hist.compilation_s", t.Compilation.Seconds())
	ph.add("hist.evaluation_s", t.Evaluation.Seconds())
	ph.add("hist.mutation_s", t.Mutation.Seconds())
	ph.add("hist.cache_hits", float64(hist.CacheHits))
	ph.add("hist.programs", float64(hist.EvaluatedPrograms))

	gradeGen := max(t.Generation-pt.generate, 0)
	graded := gradeGen + t.Compilation + t.Evaluation
	share := func(d time.Duration) time.Duration {
		if graded == 0 {
			return 0
		}
		return time.Duration(float64(pt.evaluate) * float64(d) / float64(graded))
	}
	sp.derive([]part{
		{name: "core.phase.generate", layer: "gen", dur: pt.generate},
		{name: "core.phase.evaluate", layer: "core", dur: pt.evaluate, parts: []part{
			{name: "gen.Materialize", layer: "gen", dur: share(gradeGen)},
			{name: "prog.Encode", layer: "prog", dur: share(t.Compilation)},
			{name: "uarch.Run", layer: "uarch", dur: share(t.Evaluation)},
		}},
		{name: "core.phase.mutate", layer: "mutate", dur: pt.mutate},
	})
}

type phaseTimes struct{ generate, evaluate, mutate time.Duration }

func readPhaseTimes(reg *obs.Registry) phaseTimes {
	d := func(name string) time.Duration { return time.Duration(reg.Counter(name).Load()) }
	return phaseTimes{
		generate: d("core.phase.generate.wall_ns"),
		evaluate: d("core.phase.evaluate.wall_ns"),
		mutate:   d("core.phase.mutate.wall_ns"),
	}
}

func (p phaseTimes) minus(q phaseTimes) phaseTimes {
	return phaseTimes{p.generate - q.generate, p.evaluate - q.evaluate, p.mutate - q.mutate}
}
