package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"hydra"
	"hydra/internal/pipeline"
	"hydra/internal/voting"
)

// votingSpec renders a Table 1 configuration as extended-DNAmaca text,
// the only input the program under test receives.
func votingSpec(sys [3]int) string {
	return voting.DNAmacaSource(voting.Config{CC: sys[0], MM: sys[1], NN: sys[2]})
}

// allVoted is the Fig. 4 passage target: every voter has voted.
func allVoted(m *hydra.Model, cc int) []int {
	p2 := m.PlaceIndex("p2")
	return m.States(func(mk hydra.Marking) bool { return int(mk[p2]) >= cc })
}

// votedExactly is the states where exactly k voters have voted, the
// predicate of the paper's Fig. 7 measure.
func votedExactly(m *hydra.Model, k int) []int {
	p2 := m.PlaceIndex("p2")
	return m.States(func(mk hydra.Marking) bool { return int(mk[p2]) == k })
}

// loadModel is one timed set-up: spec text to a model ready to answer.
// A traced run first times the front end on its own.
func (r *run) loadModel(src string, parent int64) (*hydra.Model, time.Duration, error) {
	if r.tr != nil {
		if err := r.probeFrontEnd(src, parent); err != nil {
			return nil, 0, err
		}
	}
	_, end := r.tr.begin("hydra.load_spec", r.name, parent)
	start := time.Now()
	m, err := hydra.LoadSpec(src)
	d := time.Since(start)
	end()
	r.led.record("setup", err == nil, false)
	return m, d, err
}

// solveStats sums what the solves of one run did.
type solveStats struct {
	solves       int
	evaluated    int
	wall         time.Duration
	fill, solve  time.Duration
	depth, saved int64
	warm         int
	workerShare  float64 // summed per solve: the busiest worker's share of the points
	workers      int
	readPoints   int
	invert       time.Duration
	points       pointLog // per-point latencies of traced in-process solves
}

func (s *solveStats) add(st *hydra.RunStats, wall time.Duration) {
	s.solves++
	s.evaluated += st.Evaluated
	s.wall += wall
	s.fill += st.Phases[pipeline.PhaseKernelFill]
	s.solve += st.Phases[pipeline.PhaseSolve]
	s.depth += st.TotalDepth
	s.warm += st.WarmStarted
	s.saved += st.SweepsSaved
	total, most := 0, 0
	for _, n := range st.PerWorker {
		total += n
		most = max(most, n)
	}
	if total > 0 {
		s.workerShare += float64(most) / float64(total)
	}
	s.workers = max(s.workers, st.Workers)
}

// report sets the pipeline, passage, smp and lt layer metrics, per
// solve where the figure is a total.
func (s *solveStats) report(r *run) {
	if s.solves == 0 {
		return
	}
	per := float64(s.solves)
	busy := s.fill + s.solve
	r.set("pipeline.busy_s", busy.Seconds()/per)
	if s.workers > 0 && s.wall > 0 {
		r.set("pipeline.idle_share", 1-busy.Seconds()/(s.wall.Seconds()*float64(s.workers)))
	}
	r.set("pipeline.max_worker_share", s.workerShare/per)

	r.set("smp.kernel_fill_s", s.fill.Seconds()/per)
	if busy > 0 {
		r.set("smp.fill_share", s.fill.Seconds()/busy.Seconds())
	}
	r.set("passage.sweeps_total", float64(s.depth)/per)
	if s.evaluated > 0 {
		r.set("passage.sweeps_per_point", float64(s.depth)/float64(s.evaluated))
		r.set("passage.warm_ratio", float64(s.warm)/float64(s.evaluated))
	}
	if s.depth > 0 && s.solve > 0 {
		r.set("passage.ns_per_sweep", float64(s.solve.Nanoseconds())/float64(s.depth))
	}
	r.set("passage.warm_starts", float64(s.warm)/per)
	r.set("passage.sweeps_saved", float64(s.saved)/per)
	if ms := s.points.ms; len(ms) > 0 {
		sorted := append([]float64(nil), ms...)
		sort.Float64s(sorted)
		r.set("passage.point_p50_ms", percentile(sorted, 0.5))
		// Flagged at these counts; the record also carries the highest
		// tail the count supports.
		r.setTail("passage.point_p99_ms", sorted, 0.99)
		r.record["point_ms"] = summarize(ms)
	}
	r.set("lt.points", float64(s.readPoints)/per)
	r.set("lt.invert_s", s.invert.Seconds()/per)
}

// batchSolver runs one spec repeatedly for the measured window, reading
// seeded source weightings from each solve.
type batchSolver struct {
	m    *hydra.Model
	spec *hydra.SolveSpec
	opts *hydra.Options
	// backend builds the traced backend for one solve; nil runs the
	// options as given.
	backend func(parent int64, log *pointLog) hydra.Backend
	reads   []weighting
	stats   solveStats
	check   func(vr *hydra.VectorRun) // correctness gate, outside the clock
	// last is the traced run's final solve, kept for the probes.
	last *hydra.VectorRun
}

// weighting is one source weighting read from a solve.
type weighting struct {
	States  []int
	Weights []float64
}

// seededReads draws n source weightings over the given states: the
// initial state first (the paper's measure), then random convex
// mixtures of one to four states.
func seededReads(r *run, pool []int, n int) []weighting {
	out := []weighting{{States: []int{0}, Weights: []float64{1}}}
	for len(out) < n {
		k := 1 + r.rng.Intn(4)
		w := weighting{}
		seen := map[int]bool{}
		sum := 0.0
		for len(w.States) < k {
			s := pool[r.rng.Intn(len(pool))]
			if seen[s] {
				continue
			}
			seen[s] = true
			x := 0.1 + r.rng.Float64()
			w.States = append(w.States, s)
			w.Weights = append(w.Weights, x)
			sum += x
		}
		for i := range w.Weights {
			w.Weights[i] /= sum
		}
		out = append(out, w)
	}
	return out
}

// solveOnce runs the spec and reads every weighting; it returns the
// solve's wall time (reads excluded).
func (b *batchSolver) solveOnce(r *run, traced bool) (time.Duration, *hydra.VectorRun, error) {
	opts := *b.opts
	var parent int64
	var end func()
	if traced {
		parent, end = r.tr.begin("hydra.run_spec", r.name, 0)
		if b.backend != nil {
			opts.Backend = b.backend(parent, &b.stats.points)
		}
	}
	start := time.Now()
	vr, err := b.m.RunSpec(b.spec, nil, &opts)
	wall := time.Since(start)
	if end != nil {
		end()
	}
	r.led.record("solve", err == nil, false)
	if err != nil {
		return 0, nil, err
	}
	readStart := time.Now()
	for _, w := range b.reads {
		_, end := r.tr.begin("hydra.read_run", r.name, 0)
		_, err := hydra.ReadRun(vr, w.States, w.Weights, r.cfg.Times, &opts)
		end()
		r.led.record("read", err == nil, false)
		if err != nil {
			return 0, nil, err
		}
		b.stats.readPoints += len(vr.Spec.Points)
	}
	b.stats.invert += time.Since(readStart)
	return wall, vr, nil
}

// minSolves is the fewest solves a run times, whatever its window: a
// run whose count depended on how fast its first solve was would bias
// its figure by that speed.
const minSolves = 2

// measure solves until the window is spent (minSolves at least), gates
// every answer, and sets solve_s to the fastest solve. Interference
// from the host only ever adds time, and it drifts over minutes: the
// median of a run's solves moves with it from run to run, the fastest
// moves less. The median and every solve go into the record. A traced
// run then times one more solve untraced and one traced, both warm, for
// the trace overhead, and keeps the last in b.last.
func (b *batchSolver) measure(r *run) error {
	var walls []float64
	start := time.Now()
	for len(walls) < minSolves || time.Since(start) < r.seconds {
		wall, vr, err := b.solveOnce(r, r.tr != nil)
		if err != nil {
			return err
		}
		b.stats.add(vr.Stats, wall)
		walls = append(walls, wall.Seconds())
		b.check(vr)
		runtime.GC()
	}
	r.set("solve_s", slices.Min(walls))
	r.record["solve_s_median"] = median(walls)
	r.record["solve_s_each"] = walls
	b.stats.report(r)
	if r.tr == nil {
		return nil
	}
	var pair [2]float64
	for i, traced := range []bool{false, true} {
		wall, vr, err := b.solveOnce(r, traced)
		if err != nil {
			return err
		}
		b.check(vr)
		pair[i] = wall.Seconds()
		b.last = vr
		runtime.GC()
	}
	r.set("obs.trace_overhead_pct", 100*(pair[1]-pair[0])/pair[0])
	return nil
}

// loadReps loads the spec setupReps times at least and sets setup_s to
// the median.
func (r *run) loadReps(src string) (*hydra.Model, error) {
	var m *hydra.Model
	var times []float64
	for r.moreSetups(times) {
		m = nil
		runtime.GC()
		id, end := r.tr.begin("setup", r.name, 0)
		mm, d, err := r.loadModel(src, id)
		end()
		if err != nil {
			return nil, err
		}
		m = mm
		times = append(times, d.Seconds())
	}
	r.set("setup_s", median(times))
	r.record["setup_s_each"] = times
	return m, nil
}

// tracedInProc is the in-process pool of the options with every
// evaluator wrapped in a span recorder.
func (r *run) tracedInProc(m *hydra.Model, opts *hydra.Options) func(int64, *pointLog) hydra.Backend {
	return func(parent int64, log *pointLog) hydra.Backend {
		return &pipeline.InProc{
			Workers: opts.Workers,
			NewEvaluator: func() pipeline.Evaluator {
				return &tracedEvaluator{
					inner: pipeline.NewSolverEvaluator(m.SMP(), opts.Solver),
					tr:    r.tr, req: r.name, parent: parent, log: log,
				}
			},
		}
	}
}

// gateValues compares one solve's per-state values, and the seeded
// weightings, with the stored reference; it returns the worst absolute
// error. The limit at each time is the solver's own error bound there:
// its convergence bound on each transform value carried through the
// Euler weights.
func gateValues(r *run, vr *hydra.VectorRun, ref *reference, reads []weighting, opts *hydra.Options) float64 {
	limit := make([]float64, len(ref.Times))
	for k, t := range ref.Times {
		limit[k] = inversionSlack(t, passageEpsilon)
	}
	r.record["gate_limit_by_t"] = limit
	worst := 0.0
	check := func(what string, k int, got, want float64) {
		d := math.Abs(got - want)
		worst = max(worst, d)
		if !(d <= limit[k]) {
			r.fail("%s t=%g: got %.12g, reference %.12g (|diff| %.3g, limit %.3g)", what, ref.Times[k], got, want, d, limit[k])
		}
	}
	byState := make(map[int]int, len(ref.States))
	for i, s := range ref.States {
		byState[s] = i
		res, err := hydra.ReadRun(vr, []int{s}, []float64{1}, ref.Times, opts)
		r.led.record("check", err == nil, false)
		if err != nil {
			r.fail("reading state %d: %v", s, err)
			continue
		}
		for k, v := range res.Values {
			check(fmt.Sprintf("state %d", s), k, v, ref.Values[i][k])
		}
	}
	for _, w := range reads {
		res, err := hydra.ReadRun(vr, w.States, w.Weights, ref.Times, opts)
		r.led.record("check", err == nil, false)
		if err != nil {
			r.fail("reading weighting %v: %v", w.States, err)
			continue
		}
		for k, v := range res.Values {
			want := 0.0
			for j, s := range w.States {
				want += w.Weights[j] * ref.Values[byState[s]][k]
			}
			check(fmt.Sprintf("weighting %v", w.States), k, v, want)
		}
	}
	return worst
}

// workingSet records the computed bytes one sweep touches beside the
// cache sizes: the CSR kernel (complex128 values, int column indices,
// int row pointers) and the solver's iterate vectors.
func workingSet(r *run, m *hydra.Model, iterateVectors int) {
	n, nnz := m.NumStates(), m.SMP().KernelNNZ()
	csr := int64(nnz)*(16+8) + int64(n+1)*8
	iter := int64(n) * 16 * int64(iterateVectors)
	r.record["working_set"] = map[string]any{
		"states": n, "kernel_nnz": nnz, "csr_bytes": csr, "iterate_bytes": iter,
		"total_bytes": csr + iter, "computed": true,
	}
}

func runPaper(r *run) error {
	m, err := r.loadReps(votingSpec(r.cfg.System))
	if err != nil {
		return err
	}
	ref, err := loadReference(r.name)
	if err != nil {
		return err
	}
	targets := allVoted(m, r.cfg.System[0])
	opts := &hydra.Options{Workers: workers}
	opts.Solver.WarmStart = r.cfg.WarmStart
	spec, err := m.NewPassageSpec(r.name, targets, r.cfg.Times, false, opts)
	if err != nil {
		return err
	}
	workingSet(r, m, 3) // the column iteration's acc, next and z
	b := &batchSolver{m: m, spec: spec, opts: opts, reads: seededReads(r, ref.States, readsPerSolve)}
	b.backend = r.tracedInProc(m, opts)
	worst := 0.0
	b.check = func(vr *hydra.VectorRun) { worst = max(worst, gateValues(r, vr, ref, b.reads, opts)) }
	if err := b.measure(r); err != nil {
		return err
	}
	r.set("max_abs_err", worst)
	if r.tr == nil {
		return nil
	}
	if err := r.probeKernel(m, spec, targets, workers); err != nil {
		return err
	}
	return r.probeFleet(m, targets, b.last.Vectors)
}
