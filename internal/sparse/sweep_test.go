package sparse

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// The fused sweep kernels must reproduce the unfused composition the
// passage solver used to run — MulVecSkipRowsRange, then a pin loop or
// a z += y loop, then a Hypot max-norm — with y and z bitwise equal.
// The norm is √(max re²+im²) where the old loop took the max of Hypot:
// it must lie within one ulp of the correctly rounded max magnitude.
// Hypot itself is not correctly rounded, so the two may differ by two.

// ulps returns the distance between two non-negative floats in units in
// the last place.
func ulps(a, b float64) uint64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func randVec(r *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = randComplex(r)
	}
	return v
}

func randFlags(r *rand.Rand, n int) []bool {
	f := make([]bool, n)
	for i := range f {
		f[i] = r.Intn(4) == 0
	}
	return f
}

// refNorm is the norm of an unfused sweep's increments: the max of
// Hypot, as the old loops took it, and the correctly rounded max
// magnitude.
type refNorm struct{ hypot, exact float64 }

func (n *refNorm) add(d complex128) {
	if a := math.Hypot(real(d), imag(d)); a > n.hypot {
		n.hypot = a
	}
	const prec = 256
	re := new(big.Float).SetPrec(prec).SetFloat64(real(d))
	im := new(big.Float).SetPrec(prec).SetFloat64(imag(d))
	sq := new(big.Float).SetPrec(prec).Mul(re, re)
	sq.Add(sq, new(big.Float).SetPrec(prec).Mul(im, im))
	if a, _ := sq.Sqrt(sq).Float64(); a > n.exact {
		n.exact = a
	}
}

// refFixedPoint is the unfused fixed-point sweep over rows [lo, hi):
// product, pin loop, max-norm of the increment against x[off+i].
func refFixedPoint(m *CMatrix, x, y []complex128, pin []bool, off, lo, hi int) refNorm {
	m.MulVecSkipRowsRange(x, y, pin, lo, hi)
	for i := lo; i < hi; i++ {
		if pin[i] {
			y[i] = 1
		}
	}
	var norm refNorm
	for i := lo; i < hi; i++ {
		norm.add(y[i] - x[off+i])
	}
	return norm
}

// refSeries is the unfused series sweep over rows [lo, hi): product,
// z += y loop, max-norm of y.
func refSeries(m *CMatrix, x, y, z []complex128, skip []bool, lo, hi int) refNorm {
	m.MulVecSkipRowsRange(x, y, skip, lo, hi)
	var norm refNorm
	for i := lo; i < hi; i++ {
		z[i] += y[i]
		norm.add(y[i])
	}
	return norm
}

func checkSweep(t *testing.T, what string, want, got []complex128, norm refNorm, gotSq float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: entry %d = %v, unfused %v", what, i, got[i], want[i])
		}
	}
	m := math.Sqrt(gotSq)
	if d := ulps(m, norm.exact); d > 1 {
		t.Fatalf("%s: norm %v is %d ulps from the exact norm %v", what, m, d, norm.exact)
	}
	if d := ulps(m, norm.hypot); d > 2 {
		t.Fatalf("%s: norm %v is %d ulps from the Hypot norm %v", what, m, d, norm.hypot)
	}
}

func TestFixedPointSweepMatchesUnfused(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(80)
		m, _ := randCMatrix(r, n, n, r.Intn(6*n+1))
		x := randVec(r, n)
		pin := randFlags(r, n)
		lo := r.Intn(n + 1)
		hi := lo + r.Intn(n-lo+1)
		// Both outputs start from the same garbage: rows outside the
		// range must be left alone.
		want, got := randVec(r, n), make([]complex128, n)
		copy(got, want)
		wantNorm := refFixedPoint(m, x, want, pin, 0, lo, hi)
		gotSq := m.FixedPointSweepRange(x, got, pin, 0, lo, hi)
		checkSweep(t, "fixed point", want, got, wantNorm, gotSq)
	}
}

func TestSeriesSweepMatchesUnfused(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(80)
		m, _ := randCMatrix(r, n, n, r.Intn(6*n+1))
		x := randVec(r, n)
		skip := randFlags(r, n)
		lo := r.Intn(n + 1)
		hi := lo + r.Intn(n-lo+1)
		want, got := randVec(r, n), make([]complex128, n)
		copy(got, want)
		wantZ, gotZ := randVec(r, n), make([]complex128, n)
		copy(gotZ, wantZ)
		wantNorm := refSeries(m, x, want, wantZ, skip, lo, hi)
		gotSq := m.SeriesSweepRange(x, got, gotZ, skip, lo, hi)
		checkSweep(t, "series y", want, got, wantNorm, gotSq)
		checkSweep(t, "series z", wantZ, gotZ, refNorm{}, 0)
	}
}

// TestFusedSweepsOnRowBlock checks the row-block offset: a block over
// rows [lo, hi) with its block-local y compares against the global slice
// x[lo:hi], and reproduces the full matrix's sweep over the same rows.
func TestFusedSweepsOnRowBlock(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(60)
		nEnt := 1 + r.Intn(5*n)
		is, js := make([]int, nEnt), make([]int, nEnt)
		for k := range is {
			is[k], js[k] = r.Intn(n), r.Intn(n)
		}
		p, idx := NewPattern(n, n, is, js)
		full := p.NewCMatrix()
		for _, slot := range idx {
			full.val[slot] = randComplex(r)
		}
		lo := r.Intn(n)
		hi := lo + 1 + r.Intn(n-lo)
		blk := p.NewRowBlock(lo, hi)
		start, end := p.RowRange(lo, hi)
		copy(blk.Values(), full.val[start:end])

		x := randVec(r, n)
		pin := randFlags(r, n)
		want := make([]complex128, n)
		wantNorm := refFixedPoint(full, x, want, pin, 0, lo, hi)
		got := make([]complex128, hi-lo)
		gotSq := blk.FixedPointSweepRange(x, got, pin[lo:hi], lo, 0, hi-lo)
		checkSweep(t, "block fixed point", want[lo:hi], got, wantNorm, gotSq)

		// A block sweep split into sub-ranges, as an overlapped shard
		// sweep runs it, gives the same rows and the same max.
		mid := r.Intn(hi - lo + 1)
		split := make([]complex128, hi-lo)
		sq := math.Max(blk.FixedPointSweepRange(x, split, pin[lo:hi], lo, mid, hi-lo),
			blk.FixedPointSweepRange(x, split, pin[lo:hi], lo, 0, mid))
		if sq != gotSq {
			t.Fatalf("split block fixed point: squared norm %v, unsplit %v", sq, gotSq)
		}
		checkSweep(t, "split block fixed point", got, split, wantNorm, sq)

		wantZ, gotZ := randVec(r, n), make([]complex128, hi-lo)
		copy(gotZ, wantZ[lo:hi])
		wantNorm = refSeries(full, x, want, wantZ, pin, lo, hi)
		gotSq = blk.SeriesSweepRange(x, got, gotZ, pin[lo:hi], 0, hi-lo)
		checkSweep(t, "block series y", want[lo:hi], got, wantNorm, gotSq)
		checkSweep(t, "block series z", wantZ[lo:hi], gotZ, refNorm{}, 0)
	}
}

// TestFusedSweepNormExtremes covers the pinned rows' increment (|1 − x|)
// and norms far from 1, where re²+im² must neither lose the max to
// rounding nor stray from the exact magnitude by more than an ulp.
func TestFusedSweepNormExtremes(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, scale := range []float64{1e-150, 1e-30, 1e-9, 1, 1e9, 1e30, 1e150} {
		n := 50
		m, _ := randCMatrix(r, n, n, 4*n)
		for k := range m.val {
			m.val[k] *= complex(scale, 0)
		}
		x := randVec(r, n)
		pin := randFlags(r, n)
		want, got := make([]complex128, n), make([]complex128, n)
		wantNorm := refFixedPoint(m, x, want, pin, 0, 0, n)
		checkSweep(t, "scaled fixed point", want, got, wantNorm, m.FixedPointSweepRange(x, got, pin, 0, 0, n))
		z := make([]complex128, n)
		wantNorm = refSeries(m, x, want, make([]complex128, n), pin, 0, n)
		checkSweep(t, "scaled series", want, got, wantNorm, m.SeriesSweepRange(x, got, z, pin, 0, n))
	}
}

// BenchmarkFixedPointSweep times one fused pinned sweep of a random
// kernel shaped like Table 1 system 0's (2,061 rows, 8,718 entries) and
// reports ns per stored entry.
func BenchmarkFixedPointSweep(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const n = 2061
	m, _ := randCMatrix(r, n, n, 8718)
	x, y := randVec(r, n), make([]complex128, n)
	pin := make([]bool, n)
	pin[n-1] = true
	for b.Loop() {
		m.FixedPointSweepRange(x, y, pin, 0, 0, n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/nnz")
}
