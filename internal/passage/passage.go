// Package passage implements the paper's primary contribution: the
// iterative algorithm of §3 for first-passage-time Laplace transforms in
// large structurally-unrestricted semi-Markov processes, together with
// the direct linear-system baseline of Eq. (2)–(3) and the transient
// state distributions of Eq. (6)–(7).
//
// All quantities are computed one Laplace point s at a time: the caller
// (in-process loop or distributed worker) owns the iteration over the
// s-points demanded by the inverter in package lt.
package passage

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hydra/internal/dtmc"
	"hydra/internal/partition"
	"hydra/internal/smp"
	"hydra/internal/sparse"
)

// ErrNoConvergence is returned when the Eq. (10) accumulator or the
// Gauss–Seidel baseline exhausts its iteration budget.
var ErrNoConvergence = errors.New("passage: iteration did not converge")

// Convergence selects the truncation criterion for the Eq. (10) sum.
type Convergence int

const (
	// MassBound (default) stops once a geometric tail bound on the
	// remaining contribution falls below Epsilon. The accumulator's ℓ1
	// norm ‖acc‖₁ is non-increasing for Re(s) > 0 (every kernel entry
	// has |u_pq| ≤ p_pq·h*_pq(Re s) < p_pq), every future increment is
	// bounded by it, and its per-step decay ratio ρ̂ gives the bound
	// Σ_{k>r} inc_k ≤ ‖acc‖₁·ρ̂/(1−ρ̂). This realises the truncation-
	// error bound the paper lists as future work and cannot stop early
	// on long passages whose first increments are zero.
	MassBound Convergence = iota
	// PaperIncrement is the literal Eq. (11) criterion: stop when the
	// real and imaginary parts of the last increment are below Epsilon
	// for ConsecutiveHits successive transition depths. It is cheaper
	// per step but can truncate prematurely when mass reaches the
	// targets only after a long zero prefix; it is retained for the
	// ablation study.
	PaperIncrement
)

// Options tunes the solvers.
type Options struct {
	// Epsilon is the convergence bound (default 1e-8); see Convergence
	// for its exact meaning under each criterion.
	Epsilon float64
	// MaxR caps the transition depth r of the iterative sum
	// (default 1<<20).
	MaxR int
	// Criterion selects the truncation rule (default MassBound).
	Criterion Convergence
	// ConsecutiveHits is how many successive sub-Epsilon increments the
	// PaperIncrement criterion requires (default 1, the paper's rule).
	ConsecutiveHits int
	// GSEpsilon is the Gauss–Seidel residual tolerance for the direct
	// baseline and the transient solver (default 1e-10).
	GSEpsilon float64
	// GSMaxIter caps Gauss–Seidel sweeps (default 10000).
	GSMaxIter int
	// IntraPointWorkers parallelises each Eq. (10) iteration across a
	// row partition of the kernel (default 1 = serial). This is
	// orthogonal to the pipeline's across-s-point distribution and pays
	// off when a single huge model has fewer pending s-points than
	// cores; for small models the per-iteration synchronisation
	// dominates.
	IntraPointWorkers int
	// WarmStart lets consecutive solves that share a target set seed
	// each Gauss–Seidel iteration from the previous s-point's solution
	// vector. On the smooth contour segments the inverters in package lt
	// produce, neighbouring s-points have nearby solutions, so the warm
	// iterate cuts sweep counts; correctness is unchanged because
	// Gauss–Seidel converges to the same fixed point from any start.
	// Off by default: warm-started answers agree with cold ones only to
	// solver tolerance, and callers that pin bit-exact reproducibility
	// across runs (or scatter non-adjacent s-points over one solver)
	// should leave it off.
	WarmStart bool
	// ShardInnerSweeps caps how many local sweeps a shard member may
	// run per halo exchange (multi-sweep batching, block-Jacobi with
	// stale halos). The conductor adapts the actual count per exchange
	// from the observed contraction rate and never exceeds this cap.
	// 0 or 1 means lock-step: one exchange per sweep, the wire v4
	// behaviour. Only sharded solves read it.
	ShardInnerSweeps int
	// ShardOverlapRows gates overlapped halo exchange (early-boundary
	// frames shipped while interior rows sweep) by block size: overlap
	// is used only when each member holds at least this many rows, since
	// shipping a separate early frame per round only pays once the
	// interior sweep is long enough to hide the relay behind. 0 means
	// the default threshold (DefaultShardOverlapRows); a negative value
	// disables overlap entirely. Only sharded solves read it.
	ShardOverlapRows int
}

// DefaultShardOverlapRows is the block size above which overlapped
// halo exchange pays for its extra per-round frame: at typical sweep
// throughput an interior of ~10^5 rows takes long enough (~ms) to hide
// a relay round trip behind.
const DefaultShardOverlapRows = 100_000

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 1e-8
	}
	if o.MaxR == 0 {
		o.MaxR = 1 << 20
	}
	if o.ConsecutiveHits == 0 {
		o.ConsecutiveHits = 1
	}
	if o.GSEpsilon == 0 {
		o.GSEpsilon = 1e-10
	}
	if o.GSMaxIter == 0 {
		o.GSMaxIter = 10000
	}
	return o
}

// Solver evaluates passage-time and transient transforms for one model.
// It owns reusable workspace buffers and is not safe for concurrent use;
// create one per worker goroutine.
type Solver struct {
	m    *smp.Model
	opts Options

	u       *sparse.CMatrix
	acc     []complex128
	next    []complex128
	targets []bool
	filledS complex128
	filled  bool
	par     *partition.ParallelProduct

	// Prepared per-target-set state (structure analysis, warm-start
	// iterates) plus reusable solve workspaces, built once per spec and
	// reused across every s-point of a contour segment. cur tracks the
	// prepared entry matching the current target flags.
	preps map[string]*prepared
	cur   *prepared
	lsts  []complex128 // interned-distribution LST table at filledS
	soj   []complex128 // sojourn LSTs workspace (transient)
	dirB  []complex128 // Eq. (2)/(3) right-hand side workspace
	diag  []complex128 // kernel diagonal workspace
	blkB  []complex128 // block multi-RHS right-hand side workspace
	blkS  []complex128 // block per-row accumulator workspace

	// Phase instrumentation for the last call, read by the pipeline's
	// observability layer. lastFill is zero when the kernel was
	// memoised; lastSweeps counts Gauss–Seidel sweeps of the last
	// direct/block solve.
	lastFill   time.Duration
	lastSweeps int
	lastWarm   bool
	lastSaved  int
}

// LastKernelFill returns the time the last solve spent assembling
// U(s) — zero when the memoised kernel was reused.
func (sv *Solver) LastKernelFill() time.Duration { return sv.lastFill }

// LastSweeps returns the Gauss–Seidel sweep count of the last direct
// or block solve (zero for iterative solves, whose depth is returned
// directly).
func (sv *Solver) LastSweeps() int { return sv.lastSweeps }

// LastWarmStart reports whether the last solve was seeded from a
// neighbouring s-point's solution, and an estimate of the sweeps that
// saved relative to the segment's cold baseline (the depth of the last
// cold solve over the same target set).
func (sv *Solver) LastWarmStart() (bool, int) { return sv.lastWarm, sv.lastSaved }

// NewSolver returns a solver for the model.
func NewSolver(m *smp.Model, opts Options) *Solver {
	n := m.N()
	sv := &Solver{
		m:       m,
		opts:    opts.withDefaults(),
		u:       m.NewKernelMatrix(),
		acc:     make([]complex128, n),
		next:    make([]complex128, n),
		targets: make([]bool, n),
	}
	if w := sv.opts.IntraPointWorkers; w > 1 {
		weights := make([]int, n)
		for i := 0; i < n; i++ {
			weights[i] = sv.u.RowNNZ(i) + 1
		}
		sv.par = partition.NewParallelProduct(partition.BalancedRows(weights, w), n)
	}
	return sv
}

// mulSkip dispatches the accumulator product to the serial or
// partition-parallel kernel.
func (sv *Solver) mulSkip(x, y []complex128) {
	if sv.par != nil {
		sv.par.VecMulSkipRows(sv.u, x, y, sv.targets)
		return
	}
	sv.u.VecMulSkipRows(x, y, sv.targets)
}

// Model returns the solver's model.
func (sv *Solver) Model() *smp.Model { return sv.m }

// prepare assembles U(s) (memoising the last s) and the target flags
// (memoised per target set via the prepared cache, so a contour segment
// re-analyses its spec's structure once, not per point).
func (sv *Solver) prepare(s complex128, targets []int) error {
	if len(targets) == 0 {
		return fmt.Errorf("passage: empty target set")
	}
	for _, t := range targets {
		if t < 0 || t >= sv.m.N() {
			return fmt.Errorf("passage: target state %d outside model of %d states", t, sv.m.N())
		}
	}
	if key := targetsKey(targets); sv.cur == nil || sv.cur.key != key {
		for i := range sv.targets {
			sv.targets[i] = false
		}
		for _, t := range targets {
			sv.targets[t] = true
		}
		sv.cur = sv.preparedFor(key)
	}
	sv.lastFill = 0
	if !sv.filled || sv.filledS != s {
		start := time.Now()
		sv.lsts = sv.m.DistLSTsInto(s, sv.lsts)
		sv.m.FillKernelSampled(sv.lsts, sv.u)
		sv.lastFill = time.Since(start)
		sv.filledS = s
		sv.filled = true
	}
	return nil
}

// SourceWeights is a sparse initial distribution over source states: the
// α̃ vector of Eq. (5). Weights must sum to 1.
type SourceWeights struct {
	States  []int
	Weights []float64
}

// SingleSource returns the degenerate weighting of one source state.
func SingleSource(i int) SourceWeights {
	return SourceWeights{States: []int{i}, Weights: []float64{1}}
}

func (sw SourceWeights) validate(n int) error {
	if len(sw.States) == 0 || len(sw.States) != len(sw.Weights) {
		return fmt.Errorf("passage: malformed source weights (%d states, %d weights)", len(sw.States), len(sw.Weights))
	}
	var sum float64
	for k, i := range sw.States {
		if i < 0 || i >= n {
			return fmt.Errorf("passage: source state %d outside model of %d states", i, n)
		}
		if math.IsNaN(sw.Weights[k]) || math.IsInf(sw.Weights[k], 0) {
			return fmt.Errorf("passage: non-finite source weight %v", sw.Weights[k])
		}
		if sw.Weights[k] < 0 {
			return fmt.Errorf("passage: negative source weight %v", sw.Weights[k])
		}
		sum += sw.Weights[k]
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("passage: source weights sum to %v, want 1", sum)
	}
	return nil
}

// IterativeLST computes L_i⃗j⃗(s) by the Eq. (10) accumulator iteration:
//
//	L̃ = (α̃U + α̃UU′ + α̃UU′² + …)·e⃗
//
// where U′ is U with target rows absorbing and e⃗ indicates the targets.
// It returns the transform value and the transition depth r at which the
// truncation criterion (see Convergence) was met.
func (sv *Solver) IterativeLST(s complex128, src SourceWeights, targets []int) (complex128, int, error) {
	if err := src.validate(sv.m.N()); err != nil {
		return 0, 0, err
	}
	if err := sv.prepare(s, targets); err != nil {
		return 0, 0, err
	}
	// acc ← α̃U.
	for i := range sv.next {
		sv.next[i] = 0
	}
	for k, i := range src.States {
		sv.next[i] = complex(src.Weights[k], 0)
	}
	sv.u.VecMul(sv.next, sv.acc)

	total := sv.dotTargets(sv.acc)
	hits := 0
	prevL1 := math.Inf(1)
	for r := 1; r <= sv.opts.MaxR; r++ {
		// acc ← acc·U′ without materialising U′ (target rows skipped).
		sv.mulSkip(sv.acc, sv.next)
		sv.acc, sv.next = sv.next, sv.acc
		inc := sv.dotTargets(sv.acc)
		total += inc
		switch sv.opts.Criterion {
		case PaperIncrement:
			if math.Abs(real(inc)) < sv.opts.Epsilon && math.Abs(imag(inc)) < sv.opts.Epsilon {
				hits++
				if hits >= sv.opts.ConsecutiveHits {
					return total, r, nil
				}
			} else {
				hits = 0
			}
		default: // MassBound
			l1 := l1Norm(sv.acc)
			if l1 < sv.opts.Epsilon {
				// Tail ≤ l1·ρ̂/(1−ρ̂) with ρ̂ the observed decay ratio;
				// require the bound itself below Epsilon.
				rho := 0.0
				if prevL1 > 0 && !math.IsInf(prevL1, 1) {
					rho = l1 / prevL1
				}
				if rho < 1 && l1*rho/(1-rho) < sv.opts.Epsilon {
					return total, r, nil
				}
			}
			prevL1 = l1
		}
	}
	return total, sv.opts.MaxR, fmt.Errorf("%w: %d transitions at s=%v (remaining mass %g)",
		ErrNoConvergence, sv.opts.MaxR, s, l1Norm(sv.acc))
}

// l1Norm returns Σ|v_i| (complex magnitudes).
func l1Norm(v []complex128) float64 {
	var sum float64
	for _, c := range v {
		sum += math.Sqrt(real(c)*real(c) + imag(c)*imag(c))
	}
	return sum
}

func (sv *Solver) dotTargets(v []complex128) complex128 {
	var sum complex128
	for i, isT := range sv.targets {
		if isT {
			sum += v[i]
		}
	}
	return sum
}

// DirectVectorLST solves the Eq. (2)/(3) linear system
//
//	x_i = Σ_{k∉j⃗} u_ik·x_k + Σ_{k∈j⃗} u_ik
//
// for the full vector x̃ = (L_1j⃗(s), …, L_Nj⃗(s)) by Gauss–Seidel sweeps.
// This is the "typical matrix inversion" comparator of §3 and the
// workhorse of the transient computation, which needs whole columns of
// passage transforms at once.
func (sv *Solver) DirectVectorLST(s complex128, targets []int) ([]complex128, error) {
	if err := sv.prepare(s, targets); err != nil {
		return nil, err
	}
	return sv.directVectorSolve(s)
}

// directVectorSolve runs the Gauss–Seidel iteration for the current
// prepared target set, reusing the solver's b/diag workspaces and — when
// WarmStart is on and a previous solution over the same targets exists —
// seeding the iterate from that neighbouring s-point instead of the
// first-Jacobi-step cold start.
func (sv *Solver) directVectorSolve(s complex128) ([]complex128, error) {
	p := sv.cur
	n := sv.m.N()
	// b_i = Σ_{k∈targets} u_ik; diag_i = u_ii if i ∉ targets.
	sv.dirB = resizeC(sv.dirB, n)
	sv.diag = resizeC(sv.diag, n)
	b, diag := sv.dirB, sv.diag
	for i := 0; i < n; i++ {
		b[i], diag[i] = 0, 0
		cols, vals := sv.u.RowSlices(i)
		for e, k := range cols {
			if sv.targets[k] {
				b[i] += vals[e]
			} else if k == i {
				diag[i] = vals[e]
			}
		}
	}
	warm := sv.opts.WarmStart && p.dirWarm && len(p.dirX) == n
	if !warm {
		p.dirX = resizeC(p.dirX, n)
		copy(p.dirX, b) // first Jacobi step as cold start
	}
	// A warm refinement only needs the accuracy of the cold route it
	// replaces: the iterative series truncates at Epsilon, so sweeping
	// down to the (tighter) GSEpsilon would spend the warm start's
	// savings buying precision the contour never had.
	eps := sv.opts.GSEpsilon
	if warm && sv.opts.Epsilon > eps {
		eps = sv.opts.Epsilon
	}
	x := p.dirX
	for iter := 0; iter < sv.opts.GSMaxIter; iter++ {
		sv.lastSweeps = iter + 1
		var worst float64 // squared: one Sqrt per sweep, not a Hypot per entry
		for i := 0; i < n; i++ {
			sum := b[i]
			cols, vals := sv.u.RowSlices(i)
			for e, k := range cols {
				if !sv.targets[k] && k != i {
					sum += vals[e] * x[k]
				}
			}
			den := 1 - diag[i]
			next := sum / den
			d := next - x[i]
			if a := real(d)*real(d) + imag(d)*imag(d); a > worst {
				worst = a
			}
			x[i] = next
		}
		if math.Sqrt(worst) < eps {
			sv.noteWarm(warm, &p.dirCold)
			p.dirWarm = sv.opts.WarmStart
			out := make([]complex128, n)
			copy(out, x)
			return out, nil
		}
	}
	p.dirWarm = false
	sv.lastWarm, sv.lastSaved = false, 0
	if warm {
		// A stale warm iterate can stall the sweep budget; retry once
		// from the cold seed before reporting non-convergence.
		return sv.directVectorSolve(s)
	}
	return nil, fmt.Errorf("%w: Gauss–Seidel after %d sweeps at s=%v", ErrNoConvergence, sv.opts.GSMaxIter, s)
}

// DirectLST is the α̃-weighted scalar form of DirectVectorLST, comparable
// with IterativeLST.
func (sv *Solver) DirectLST(s complex128, src SourceWeights, targets []int) (complex128, error) {
	if err := src.validate(sv.m.N()); err != nil {
		return 0, err
	}
	x, err := sv.DirectVectorLST(s, targets)
	if err != nil {
		return 0, err
	}
	var out complex128
	for k, i := range src.States {
		out += complex(src.Weights[k], 0) * x[i]
	}
	return out, nil
}

// DirectDenseLST solves the same system by dense Gaussian elimination —
// O(N³), usable only on small models, kept as the ground-truth oracle for
// tests and the ablation bench.
func (sv *Solver) DirectDenseLST(s complex128, src SourceWeights, targets []int) (complex128, error) {
	if err := src.validate(sv.m.N()); err != nil {
		return 0, err
	}
	if err := sv.prepare(s, targets); err != nil {
		return 0, err
	}
	n := sv.m.N()
	a := sparse.NewDense(n)
	b := make([]complex128, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		sv.u.Row(i, func(k int, v complex128) {
			if sv.targets[k] {
				b[i] += v
			} else {
				a.Add(i, k, -v)
			}
		})
	}
	x, err := sparse.SolveDense(a, b)
	if err != nil {
		return 0, err
	}
	var out complex128
	for k, i := range src.States {
		out += complex(src.Weights[k], 0) * x[i]
	}
	return out, nil
}

// ComputeSourceWeights derives the Eq. (5) α̃ vector for a source set
// from the steady state of the embedded DTMC. For a single source the
// result is the trivial weighting and the (possibly expensive) steady
// state is skipped.
func ComputeSourceWeights(m *smp.Model, sources []int) (SourceWeights, error) {
	if len(sources) == 0 {
		return SourceWeights{}, fmt.Errorf("passage: empty source set")
	}
	if len(sources) == 1 {
		return SingleSource(sources[0]), nil
	}
	pi, err := dtmc.SteadyStateGS(m.EmbeddedDTMC(), dtmc.Options{SkipIrreducibilityCheck: true})
	if err != nil {
		return SourceWeights{}, fmt.Errorf("passage: embedded chain steady state: %w", err)
	}
	alpha, err := dtmc.Alpha(pi, sources)
	if err != nil {
		return SourceWeights{}, err
	}
	return SourceWeights{States: sources, Weights: alpha}, nil
}
