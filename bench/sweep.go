package main

import (
	"encoding/binary"
	"math"
	"time"

	"goldeneye"
	"goldeneye/internal/dataset"
	"goldeneye/internal/zoo"
)

// sweepFormatsWorkload is the Fig 3/4 accuracy sweep: no injection or
// campaign bookkeeping, so numfmt and tensor do nearly all the work, and
// the only workload running the non-fused emerging formats.
var sweepFormatsWorkload = &workload{
	name:      "sweep-formats",
	models:    sweepModels,
	setupReps: 15,
	runner:    func() runner { return &sweepRunner{} },
}

// sweepRunner evaluates every sweep model under native execution and
// every sweep format (weights and activations) on a seed-drawn validation
// subset per round.
type sweepRunner struct {
	subset int

	ds      *dataset.Dataset
	sims    []*goldeneye.Simulator
	configs []goldeneye.EmulationConfig // native first, then sweepFormats

	op        int
	first     *goldeneye.EvalPool // round 0's pool, re-evaluated by check
	firstAcc  float64
	overheads map[string][]float64 // traced rounds' time ratios by metric name
}

func (s *sweepRunner) setup(e *env) error {
	s.subset = 128
	if e.o.smoke {
		s.subset = 32
	}
	e.digestOps = len(sweepModels) * (1 + len(sweepFormats))
	if err := e.part("dataset.synth_s", func() error {
		s.ds = dataset.New(dataset.Default())
		return nil
	}); err != nil {
		return err
	}
	models := make([]goldeneye.Module, len(sweepModels))
	if err := e.part("zoo.load_s", func() error {
		for i, name := range sweepModels {
			m, err := zoo.PretrainedOn(zoo.DefaultDir(), name, s.ds)
			if err != nil {
				return err
			}
			models[i] = m
		}
		return nil
	}); err != nil {
		return err
	}
	s.sims = make([]*goldeneye.Simulator, len(models))
	if err := e.part("goldeneye.wrap_s", func() (err error) {
		for i, m := range models {
			if s.sims[i], err = goldeneye.NewSimulator(m, s.ds.ValX); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	s.configs = []goldeneye.EmulationConfig{{}}
	for _, name := range sweepFormats {
		f, err := goldeneye.ParseFormat(name)
		if err != nil {
			return err
		}
		s.configs = append(s.configs, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
			Default: goldeneye.RoleFormats{Weights: f, Activations: f},
		}})
	}
	return nil
}

func (s *sweepRunner) teardown() {}

// pool draws this round's validation subset from the run's seed.
func (s *sweepRunner) pool(e *env) (*goldeneye.EvalPool, error) {
	idx := e.rng.Perm(s.ds.ValLen())[:s.subset]
	x, y := gather(s.ds.ValX, s.ds.ValY, idx)
	return goldeneye.NewEvalPool(x, y, 0)
}

func (s *sweepRunner) warmup(e *env) error {
	p, err := s.pool(e)
	if err != nil {
		return err
	}
	e.attempted++
	s.sims[0].EvaluatePool(p, s.configs[0])
	return nil
}

func (s *sweepRunner) window(e *env, deadline time.Time) {
	s.overheads = map[string][]float64{}
	e.rounds(deadline, func(r int, traced bool) float64 {
		tr := e.spans(traced)
		round := tr.begin("round", -1, -1, 0)
		defer tr.end(round)
		p, err := s.pool(e)
		if err != nil {
			e.attempted++
			e.fail("round %d pool: %v", r, err)
			return 0
		}
		if s.first == nil {
			s.first = p
		}
		// The operation is the whole sweep, which is what a user of the
		// format sweep waits for; single evaluations differ by format too
		// much for their median to be steady.
		start := time.Now()
		images := 0
		for mi, sim := range s.sims {
			var native float64
			for ci, cfg := range s.configs {
				op := s.op
				s.op++
				id := tr.begin("EvaluatePool", round, op, 0)
				evalStart := time.Now()
				acc := sim.EvaluatePool(p, cfg)
				d := time.Since(evalStart)
				tr.end(id)
				e.attempted++
				images += p.Len()
				if !(acc >= 0 && acc <= 1) {
					e.fail("%s config %d: accuracy %v outside [0, 1]", sweepModels[mi], ci, acc)
				}
				if op == 0 {
					s.firstAcc = acc
				}
				e.output(op, binary.BigEndian.AppendUint64(nil, math.Float64bits(acc)))
				if ci == 0 {
					native = d.Seconds()
				} else if traced {
					name := "numfmt.overhead_ratio." + sweepModels[mi] + "." + sweepFormats[ci-1]
					s.overheads[name] = append(s.overheads[name], d.Seconds()/native)
				}
			}
		}
		e.opLatency(time.Since(start), traced, true)
		return float64(images)
	})
}

// check re-evaluates the first operation, which must reproduce its
// accuracy bit for bit, and requires the native models to be trained.
func (s *sweepRunner) check(e *env) {
	e.attempted++
	if acc := s.sims[0].EvaluatePool(s.first, s.configs[0]); acc != s.firstAcc {
		e.fail("re-evaluation gave accuracy %v, first evaluation %v", acc, s.firstAcc)
	}
	if s.firstAcc < 0.5 {
		e.fail("native %s accuracy %v: the zoo model is not trained", sweepModels[0], s.firstAcc)
	}
}

func (s *sweepRunner) layers(e *env, m map[string]float64) {
	for name, vals := range s.overheads {
		m[name] = median(vals)
	}
}
