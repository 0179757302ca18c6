package partition

import (
	"sync"

	"hydra/internal/sparse"
)

// ParallelProduct computes y = x·M with target rows skipped, split over
// a fixed row partition: each worker accumulates its partial product
// into a private buffer and the buffers are reduced into y. It
// parallelises a single Eq. (10) iteration across cores — complementary
// to the across-s-point distribution of the pipeline, and the mode that
// matters when one enormous model has fewer pending s-points than
// workers.
type ParallelProduct struct {
	ranges []Range
	bufs   [][]complex128
	maxes  []float64 // per-range results of the fused column sweeps
}

// NewParallelProduct sizes the partial buffers for an n-column matrix
// split into the given ranges.
func NewParallelProduct(ranges []Range, n int) *ParallelProduct {
	bufs := make([][]complex128, len(ranges))
	for i := range bufs {
		bufs[i] = make([]complex128, n)
	}
	return &ParallelProduct{ranges: ranges, bufs: bufs, maxes: make([]float64, len(ranges))}
}

// Workers returns the number of partitions.
func (pp *ParallelProduct) Workers() int { return len(pp.ranges) }

// FixedPointSweep runs one pinned fixed-point sweep y = e⃗ + M′·x in
// parallel (see sparse.CMatrix.FixedPointSweepRange) and returns the
// largest squared increment max_i |y_i − x_i|². Output rows are
// independent in the column form, so each worker writes its own
// disjoint range of y directly and the only reduction is the max over
// the per-range results.
func (pp *ParallelProduct) FixedPointSweep(m *sparse.CMatrix, x, y []complex128, pin []bool) float64 {
	return pp.reduceMax(func(r Range) float64 {
		return m.FixedPointSweepRange(x, y, pin, 0, r.Lo, r.Hi)
	})
}

// SeriesSweep runs one accumulator-series sweep y = M′·x, z += y in
// parallel (see sparse.CMatrix.SeriesSweepRange) and returns the
// largest squared magnitude max_i |y_i|².
func (pp *ParallelProduct) SeriesSweep(m *sparse.CMatrix, x, y, z []complex128, skip []bool) float64 {
	return pp.reduceMax(func(r Range) float64 {
		return m.SeriesSweepRange(x, y, z, skip, r.Lo, r.Hi)
	})
}

// reduceMax runs sweep over every range concurrently and returns the
// largest of the per-range results.
func (pp *ParallelProduct) reduceMax(sweep func(Range) float64) float64 {
	if len(pp.ranges) == 1 {
		return sweep(pp.ranges[0])
	}
	var wg sync.WaitGroup
	for w, r := range pp.ranges {
		wg.Add(1)
		go func(w int, r Range) {
			defer wg.Done()
			pp.maxes[w] = sweep(r)
		}(w, r)
	}
	wg.Wait()
	var worst float64
	for _, a := range pp.maxes {
		if a > worst {
			worst = a
		}
	}
	return worst
}

// VecMulSkipRows computes y = x·M′ (M with skip rows zeroed) in
// parallel. y is fully overwritten.
func (pp *ParallelProduct) VecMulSkipRows(m *sparse.CMatrix, x, y []complex128, skip []bool) {
	if len(pp.ranges) == 1 {
		m.VecMulSkipRows(x, y, skip)
		return
	}
	var wg sync.WaitGroup
	for w, r := range pp.ranges {
		wg.Add(1)
		go func(w int, r Range) {
			defer wg.Done()
			buf := pp.bufs[w]
			for i := range buf {
				buf[i] = 0
			}
			m.VecMulSkipRowsRange(x, buf, skip, r.Lo, r.Hi)
		}(w, r)
	}
	wg.Wait()
	// Parallel reduction over column blocks: each worker sums one slice
	// of the output across all partial buffers.
	n := len(y)
	blocks := len(pp.ranges)
	var rg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		lo := b * n / blocks
		hi := (b + 1) * n / blocks
		rg.Add(1)
		go func(lo, hi int) {
			defer rg.Done()
			for j := lo; j < hi; j++ {
				var sum complex128
				for _, buf := range pp.bufs {
					sum += buf[j]
				}
				y[j] = sum
			}
		}(lo, hi)
	}
	rg.Wait()
}
