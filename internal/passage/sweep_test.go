package passage

import (
	"math"
	"math/rand"
	"testing"

	"hydra/internal/lt"
	"hydra/internal/petri"
	"hydra/internal/smp"
	"hydra/internal/voting"
)

// hypotMax is the increment norm the unfused loops took: max_i |v_i| by
// Hypot.
func hypotMax(v []complex128) float64 {
	var m float64
	for _, c := range v {
		if a := math.Hypot(real(c), imag(c)); a > m {
			m = a
		}
	}
	return m
}

// unfusedContour walks a contour the way VectorLST with WarmStart did
// before its sweeps were fused: a cold series at the first point, then
// warm refinement seeded from the last one to three converged
// accumulators, each sweep a MulVecSkipRows product followed by separate
// pin, accumulate, difference and Hypot-norm loops. It returns every
// point's sweep count and answer.
func unfusedContour(t testing.TB, m *smp.Model, targets []int, pts []complex128) ([]int, [][]complex128) {
	sv := NewSolver(m, Options{})
	n := m.N()
	var hist [][]complex128 // converged accumulators, newest last
	var depths []int
	var outs [][]complex128
	for _, s := range pts {
		if err := sv.prepare(s, targets); err != nil {
			t.Fatal(err)
		}
		x, y := make([]complex128, n), make([]complex128, n)
		out := make([]complex128, n)
		gauge := newConvGauge(sv.opts)
		r := 1
		step := func() {
			if r++; r > sv.opts.MaxR {
				t.Fatalf("unfused loop did not converge at s=%v", s)
			}
		}
		switch k := len(hist); k {
		case 0:
			z := make([]complex128, n)
			for i, isT := range sv.targets {
				if isT {
					x[i], z[i] = 1, 1
				}
			}
			for ; ; step() {
				sv.u.MulVecSkipRows(x, y, sv.targets)
				x, y = y, x
				for i := range z {
					z[i] += x[i]
				}
				if gauge.converged(hypotMax(x)) {
					break
				}
			}
			sv.u.MulVec(z, out)
			hist = append(hist, z)
		default:
			switch {
			case k >= 3:
				for i := range x {
					x[i] = 3*(hist[k-1][i]-hist[k-2][i]) + hist[k-3][i]
				}
			case k == 2:
				for i := range x {
					x[i] = 2*hist[1][i] - hist[0][i]
				}
			default:
				copy(x, hist[0])
			}
			d := make([]complex128, n)
			for ; ; step() {
				sv.u.MulVecSkipRows(x, y, sv.targets)
				for i, isT := range sv.targets {
					if isT {
						y[i] = 1
					}
				}
				for i := range y {
					d[i] = y[i] - x[i]
				}
				x, y = y, x
				if gauge.converged(hypotMax(d)) {
					break
				}
			}
			copy(out, x)
			for i, isT := range sv.targets {
				if isT {
					cols, vals := sv.u.RowSlices(i)
					var sum complex128
					for e, c := range cols {
						sum += vals[e] * x[c]
					}
					out[i] = sum
				}
			}
			hist = append(hist, x)
		}
		depths = append(depths, r)
		outs = append(outs, out)
	}
	return depths, outs
}

// sys0 explores Table 1 system 0 (2,061 states) and returns its SMP and
// the all-voted target set.
func sys0(t testing.TB) (*smp.Model, []int) {
	t.Helper()
	ss, err := voting.BuildSystem(0, voting.DefaultDurations(), petri.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ss.Model, voting.VotedAtLeast(ss, voting.Table1[0].Config.CC)
}

// The fused sweeps change no arithmetic: walking a warm contour, the
// serial and the partition-parallel solver take the same number of
// sweeps at every point as the unfused loop and return bitwise the same
// answers — on random models and on one Euler segment of system 0.
func TestWarmContourMatchesUnfusedLoop(t *testing.T) {
	type contourCase struct {
		m       *smp.Model
		targets []int
		pts     []complex128
	}
	var cases []contourCase
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(30)
		cases = append(cases, contourCase{randomSMP(r, n), []int{r.Intn(n)}, contour(0.4+r.Float64(), 12)})
	}
	m, targets := sys0(t)
	cases = append(cases, contourCase{m, targets, lt.DefaultEuler().Points([]float64{10})})

	for c, tc := range cases {
		wantDepths, wantOuts := unfusedContour(t, tc.m, tc.targets, tc.pts)
		for _, workers := range []int{1, 3} {
			sv := NewSolver(tc.m, Options{WarmStart: true, IntraPointWorkers: workers})
			for k, s := range tc.pts {
				out, depth, err := sv.VectorLST(s, tc.targets)
				if err != nil {
					t.Fatalf("case %d workers %d point %d: %v", c, workers, k, err)
				}
				if depth != wantDepths[k] {
					t.Fatalf("case %d workers %d point %d: %d sweeps, unfused loop %d", c, workers, k, depth, wantDepths[k])
				}
				for i := range out {
					if out[i] != wantOuts[k][i] {
						t.Fatalf("case %d workers %d point %d state %d: %v, unfused loop %v",
							c, workers, k, i, out[i], wantOuts[k][i])
					}
				}
			}
		}
	}
}

// BenchmarkWarmContour solves one 33-point Euler segment (t = 10) of
// Table 1 system 0 with warm starts, as the passage density workload
// does per time point, and reports ns per sweep.
func BenchmarkWarmContour(b *testing.B) {
	m, targets := sys0(b)
	pts := lt.DefaultEuler().Points([]float64{10})
	sweeps := 0
	for b.Loop() {
		sv := NewSolver(m, Options{WarmStart: true})
		for _, s := range pts {
			_, depth, err := sv.VectorLST(s, targets)
			if err != nil {
				b.Fatal(err)
			}
			sweeps += depth
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sweeps), "ns/sweep")
}
