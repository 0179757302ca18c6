package passage

import (
	"fmt"
	"math"
)

// This file holds the vector-valued solve engine: every routine returns
// results indexed by *source state*, so one kernel solve per (model,
// targets, s) serves any number of source weightings as O(N) dot
// products. The scalar entry points (IterativeLST, TransientLST) remain
// as thin weighted reads.

// fixedPointSweep runs one pinned Eq. (10) fixed-point sweep
// y = e⃗ + U′·x on the serial or partition-parallel kernel and returns
// the increment max-norm max_i |y_i − x_i|.
func (sv *Solver) fixedPointSweep(x, y []complex128) float64 {
	if sv.par != nil {
		return math.Sqrt(sv.par.FixedPointSweep(sv.u, x, y, sv.targets))
	}
	return math.Sqrt(sv.u.FixedPointSweepRange(x, y, sv.targets, 0, 0, len(y)))
}

// seriesSweep runs one term of the cold Eq. (10) series, y = U′·x
// (target rows zeroed) folded into the accumulator z += y, on the
// serial or partition-parallel kernel and returns the increment
// max-norm max_i |y_i|.
func (sv *Solver) seriesSweep(x, y, z []complex128) float64 {
	if sv.par != nil {
		return math.Sqrt(sv.par.SeriesSweep(sv.u, x, y, z, sv.targets))
	}
	return math.Sqrt(sv.u.SeriesSweepRange(x, y, z, sv.targets, 0, len(y)))
}

// IterativeVectorLST computes the full source-indexed passage vector
//
//	L_·j⃗(s) = (U + UU′ + UU′² + …)·e⃗
//
// by propagating the target-indicator column e⃗ backwards through U′ —
// the column form of the Eq. (10) iteration. One run costs the same as
// a single-source IterativeLST (one sparse product per transition
// depth) yet yields L_ij⃗(s) for every source state i at once, which is
// how the paper's algorithm serves all sources in one sweep over U(s).
// It returns the vector and the transition depth r at which the
// truncation criterion (see Convergence) was met.
func (sv *Solver) IterativeVectorLST(s complex128, targets []int) ([]complex128, int, error) {
	if err := sv.prepare(s, targets); err != nil {
		return nil, 0, err
	}
	n := sv.m.N()
	// c ← e⃗; z accumulates Σ_r U′^r·e⃗, so the answer is U·z.
	z := make([]complex128, n)
	for i := range sv.acc {
		sv.acc[i] = 0
	}
	for i, isT := range sv.targets {
		if isT {
			sv.acc[i] = 1
			z[i] = 1
		}
	}
	finish := func(r int) ([]complex128, int, error) {
		out := make([]complex128, n)
		sv.u.MulVec(z, out)
		sv.lastWarm, sv.lastSaved = false, 0
		if sv.opts.WarmStart {
			// The converged accumulator satisfies the fixed point
			// z = e⃗ + U′·z, so the neighbouring s-point can continue the
			// same iteration from it (warmRefine); the depth is the
			// segment's cold baseline.
			p := sv.cur
			p.dirZ = append(p.dirZ[:0], z...)
			p.zWarm = true
			p.zPrev, p.zPrev2 = false, false // a cold restart orphans the extrapolation history
			p.dirCold = r
		}
		return out, r, nil
	}
	// The increment to any L_i at depth r is (U·c_r)_i, bounded by
	// ‖c_r‖∞ since every |U| row sum is below 1 for Re(s) > 0 — so the
	// max norm plays the role the ℓ1 norm plays in the row iteration.
	gauge := newConvGauge(sv.opts)
	var m float64
	for r := 1; r <= sv.opts.MaxR; r++ {
		m = sv.seriesSweep(sv.acc, sv.next, z)
		sv.acc, sv.next = sv.next, sv.acc
		if gauge.converged(m) {
			return finish(r)
		}
	}
	return nil, sv.opts.MaxR, fmt.Errorf("%w: %d transitions at s=%v (remaining mass %g)",
		ErrNoConvergence, sv.opts.MaxR, s, m)
}

// warmRefine continues the Eq. (10) fixed point z = e⃗ + U′·z from the
// neighbouring s-point's converged accumulator — or, once two
// neighbours exist, from their linear extrapolation, whose O(h²) seed
// error buys several extra contraction decades of head start. Each
// sweep is one pass of fixedPointSweep — the same kernel traversal as
// one series term, with the target pin and the increment norm folded
// in — so on a smooth contour the refinement replaces a full depth-r
// series with a fraction of the sweeps. The same geometric tail
// bound as the cold loop certifies the result: ρ(U′) < 1 for
// Re(s) > 0, so ‖z* − z_r‖∞ ≤ m·ρ/(1−ρ) with m the last increment.
func (sv *Solver) warmRefine(s complex128) ([]complex128, int, error) {
	p := sv.cur
	n := sv.m.N()
	x, y := sv.acc, sv.next
	switch {
	case p.zPrev2 && len(p.dirZPrev2) == n:
		// Quadratic extrapolation through the last three accumulators.
		for i := range x {
			x[i] = 3*(p.dirZ[i]-p.dirZPrev[i]) + p.dirZPrev2[i]
		}
	case p.zPrev && len(p.dirZPrev) == n:
		for i := range x {
			x[i] = 2*p.dirZ[i] - p.dirZPrev[i]
		}
	default:
		copy(x, p.dirZ)
	}
	gauge := newConvGauge(sv.opts)
	for r := 1; r <= sv.opts.MaxR; r++ {
		sv.lastSweeps = r
		m := sv.fixedPointSweep(x, y)
		x, y = y, x
		if gauge.converged(m) {
			sv.acc, sv.next = x, y
			// out = U·z, but at the fixed point U′·z = z − e⃗, and U′
			// differs from U only in the zeroed target rows — so the
			// non-target rows of the answer are z itself (within the
			// certified tail bound) and only the target rows need a real
			// row product. That drops the closing full-kernel traversal.
			out := make([]complex128, n)
			copy(out, x)
			for i, isT := range sv.targets {
				if !isT {
					continue
				}
				cols, vals := sv.u.RowSlices(i)
				var sum complex128
				for e, k := range cols {
					sum += vals[e] * x[k]
				}
				out[i] = sum
			}
			sv.noteWarm(true, &p.dirCold)
			p.dirZPrev2, p.dirZPrev, p.dirZ =
				p.dirZPrev, p.dirZ, append(p.dirZPrev2[:0], x...)
			p.zPrev2 = p.zPrev
			p.zPrev = true
			return out, r, nil
		}
	}
	sv.acc, sv.next = x, y
	p.zWarm, p.zPrev, p.zPrev2 = false, false, false // stale seed: rerun cold
	sv.lastWarm, sv.lastSaved = false, 0
	return nil, sv.opts.MaxR, fmt.Errorf("%w: warm refinement after %d sweeps at s=%v",
		ErrNoConvergence, sv.opts.MaxR, s)
}

// DirectVectorLSTColumns solves the K = len(targets) independent
// single-target systems
//
//	x^k_i = Σ_{m ≠ t_k} u_im·x^k_m + u_{i,t_k}
//
// as one block multi-RHS Gauss–Seidel iteration: every sweep traverses
// the CSR kernel once and updates all K columns from each stored entry,
// so the |j⃗| per-target solves the transient computation needs cost one
// batched sweep sequence over a single kernel refresh instead of |j⃗|
// independent passes. Column k of the result is the passage column
// x^k_i = L_i,t_k(s), with the cycle transform L_kk(s) on its diagonal.
func (sv *Solver) DirectVectorLSTColumns(s complex128, targets []int) ([][]complex128, error) {
	if err := sv.prepare(s, targets); err != nil {
		return nil, err
	}
	p := sv.cur
	n := sv.m.N()
	if p.uniq == nil {
		// Deduplicate: a state that appears twice names the identical
		// system, so solve unique targets and fan the columns back out.
		// This structure depends only on the target set, so the prepared
		// entry carries it across the whole contour segment.
		p.uniq = make([]int, 0, len(targets))
		p.colFor = make([]int, len(targets)) // requested index → unique column
		p.tgtCol = make([]int, n)            // state → unique column, -1 otherwise
		for i := range p.tgtCol {
			p.tgtCol[i] = -1
		}
		for k, t := range targets {
			if p.tgtCol[t] < 0 {
				p.tgtCol[t] = len(p.uniq)
				p.uniq = append(p.uniq, t)
			}
			p.colFor[k] = p.tgtCol[t]
		}
	}
	uniq, colFor, tgtCol := p.uniq, p.colFor, p.tgtCol
	K := len(uniq)

	// b[i*K+k] = u_{i,t_k}; diag[i] = u_ii (excluded from column k's
	// denominator only when i == t_k, where it lives in b instead).
	sv.blkB = resizeC(sv.blkB, n*K)
	sv.diag = resizeC(sv.diag, n)
	b, diag := sv.blkB, sv.diag
	for i := range b {
		b[i] = 0
	}
	for i := 0; i < n; i++ {
		diag[i] = 0
		cols, vals := sv.u.RowSlices(i)
		for e, m := range cols {
			if k := tgtCol[m]; k >= 0 {
				b[i*K+k] += vals[e]
			}
			if m == i {
				diag[i] = vals[e]
			}
		}
	}
	warm := sv.opts.WarmStart && p.blockWarm && len(p.blockX) == n*K
	if !warm {
		p.blockX = resizeC(p.blockX, n*K)
		copy(p.blockX, b) // first Jacobi step as cold start
	}
	x := p.blockX
	sv.blkS = resizeC(sv.blkS, K)
	sum := sv.blkS
	for iter := 0; iter < sv.opts.GSMaxIter; iter++ {
		sv.lastSweeps = iter + 1
		var worst float64 // squared: one Sqrt per sweep, not a Hypot per entry
		for i := 0; i < n; i++ {
			copy(sum, b[i*K:(i+1)*K])
			cols, vals := sv.u.RowSlices(i)
			for e, m := range cols {
				if m == i {
					continue // diagonal: in the denominator (or in b when i = t_k)
				}
				v := vals[e]
				xm := x[m*K : (m+1)*K]
				for k := range sum {
					sum[k] += v * xm[k]
				}
				if k := tgtCol[m]; k >= 0 {
					// m is target t_k: its coefficient belongs to b for
					// column k, not the iterate.
					sum[k] -= v * xm[k]
				}
			}
			xi := x[i*K : (i+1)*K]
			for k := range sum {
				den := 1 - diag[i]
				if uniq[k] == i {
					den = 1
				}
				next := sum[k] / den
				d := next - xi[k]
				if a := real(d)*real(d) + imag(d)*imag(d); a > worst {
					worst = a
				}
				xi[k] = next
			}
		}
		if math.Sqrt(worst) < sv.opts.GSEpsilon {
			sv.noteWarm(warm, &p.blockCold)
			p.blockWarm = sv.opts.WarmStart
			cols := make([][]complex128, K)
			for k := range cols {
				col := make([]complex128, n)
				for i := 0; i < n; i++ {
					col[i] = x[i*K+k]
				}
				cols[k] = col
			}
			out := make([][]complex128, len(targets))
			for k, u := range colFor {
				out[k] = cols[u]
			}
			return out, nil
		}
	}
	p.blockWarm = false
	sv.lastWarm, sv.lastSaved = false, 0
	if warm {
		// A stale warm iterate can stall the sweep budget; retry once
		// from the cold seed before reporting non-convergence.
		return sv.DirectVectorLSTColumns(s, targets)
	}
	return nil, fmt.Errorf("%w: block Gauss–Seidel (%d columns) after %d sweeps at s=%v",
		ErrNoConvergence, K, sv.opts.GSMaxIter, s)
}
