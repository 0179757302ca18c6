package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/sparse"
)

func TestBalancedRowsCoverAndBalance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		parts := 1 + r.Intn(8)
		weights := make([]int, n)
		var total int
		for i := range weights {
			weights[i] = 1 + r.Intn(50)
			total += weights[i]
		}
		ranges := BalancedRows(weights, parts)
		// Coverage: contiguous, disjoint, complete.
		pos := 0
		for _, rg := range ranges {
			if rg.Lo != pos || rg.Hi <= rg.Lo {
				return false
			}
			pos = rg.Hi
		}
		if pos != n {
			return false
		}
		// Balance: no part above 2× the ideal share plus one max row
		// (contiguity limits how well small n can balance).
		if len(ranges) > 1 {
			ideal := float64(total) / float64(len(ranges))
			maxRow := 0
			for _, w := range weights {
				if w > maxRow {
					maxRow = w
				}
			}
			for _, rg := range ranges {
				var sum int
				for i := rg.Lo; i < rg.Hi; i++ {
					sum += weights[i]
				}
				if float64(sum) > 2*ideal+float64(maxRow) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBalancedRowsMorePartsThanRows(t *testing.T) {
	ranges := BalancedRows([]int{5, 5}, 10)
	if len(ranges) != 2 {
		t.Fatalf("got %d ranges, want 2", len(ranges))
	}
}

// Regression: all-zero weights used to dump every row into the final
// range; now they balance by row count.
func TestBalancedRowsZeroWeights(t *testing.T) {
	ranges := BalancedRows(make([]int, 4), 2)
	if len(ranges) != 2 || ranges[0] != (Range{0, 2}) || ranges[1] != (Range{2, 4}) {
		t.Fatalf("zero weights split as %v, want [{0 2} {2 4}]", ranges)
	}
	pos := 0
	for _, rg := range BalancedRows(make([]int, 7), 3) {
		if rg.Lo != pos || rg.Hi <= rg.Lo {
			t.Fatalf("zero-weight ranges not contiguous/non-empty: %v", rg)
		}
		pos = rg.Hi
	}
	if pos != 7 {
		t.Fatalf("zero-weight ranges cover %d rows, want 7", pos)
	}
}

func checkShardCover(t *testing.T, ranges []Range, n int) {
	t.Helper()
	pos := 0
	for _, rg := range ranges {
		if rg.Lo != pos || rg.Hi <= rg.Lo {
			t.Fatalf("ranges %v: not contiguous non-empty at %v", ranges, rg)
		}
		pos = rg.Hi
	}
	if pos != n {
		t.Fatalf("ranges %v cover %d rows, want %d", ranges, pos, n)
	}
}

// Regression: more parts than states must yield fewer, non-empty blocks,
// never empty ones.
func TestShardBlocksFewerStatesThanParts(t *testing.T) {
	ranges := ShardBlocks(3, 8, []int{1})
	if len(ranges) > 3 {
		t.Fatalf("3 states split into %d blocks", len(ranges))
	}
	checkShardCover(t, ranges, 3)
}

// Regression: a contiguous run of target states is never split across
// blocks, even when the balanced cut would land inside it.
func TestShardBlocksPinsTargetRuns(t *testing.T) {
	n := 20
	run := []int{8, 9, 10, 11, 12} // straddles the 2-way midpoint
	for parts := 2; parts <= 4; parts++ {
		ranges := ShardBlocks(n, parts, run)
		checkShardCover(t, ranges, n)
		for _, rg := range ranges {
			if rg.Lo > run[0] && rg.Lo <= run[len(run)-1] {
				t.Fatalf("parts=%d: cut at %d lands inside target run %v (ranges %v)",
					parts, rg.Lo, run, ranges)
			}
		}
	}
	// Property sweep: random target sets, every run stays whole.
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(60)
		parts := 1 + r.Intn(6)
		var targets []int
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				targets = append(targets, i)
			}
		}
		ranges := ShardBlocks(n, parts, targets)
		checkShardCover(t, ranges, n)
		isT := make([]bool, n)
		for _, tgt := range targets {
			isT[tgt] = true
		}
		for _, rg := range ranges[1:] {
			if rg.Lo > 0 && isT[rg.Lo] && isT[rg.Lo-1] {
				t.Fatalf("trial %d: cut at %d splits a target run (targets %v, ranges %v)",
					trial, rg.Lo, targets, ranges)
			}
		}
	}
}

// ring builds a cyclic adjacency matrix of n states.
func ring(n int) *sparse.CMatrix {
	b := sparse.NewCBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, (i+1)%n, 1)
		b.Add((i+1)%n, i, 1)
	}
	return b.Build()
}

func TestCutEdgesRing(t *testing.T) {
	// A ring split into k contiguous arcs has exactly 2k cut edges in
	// each direction = 4k/2... precisely: k boundaries × 2 directed
	// edges crossing each = 2k? Each boundary between arcs cuts the two
	// directed edges spanning it: 2 per boundary, k boundaries (cyclic).
	n := 100
	m := ring(n)
	for _, parts := range []int{2, 4, 5} {
		weights := make([]int, n)
		for i := range weights {
			weights[i] = 2
		}
		a := FromRanges(BalancedRows(weights, parts), n)
		cut := CutEdges(m, a)
		if cut != 2*parts {
			t.Errorf("parts=%d: cut = %d, want %d", parts, cut, 2*parts)
		}
	}
}

func TestLocalityBeatsRandomPlacement(t *testing.T) {
	// On a 2D-grid-like kernel, contiguous BFS placement must cut far
	// fewer edges than a random permutation — the (hyper)graph
	// partitioning argument in miniature.
	const side = 40
	n := side * side
	b := sparse.NewCBuilder(n, n)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			i := x*side + y
			if x+1 < side {
				b.Add(i, i+side, 1)
				b.Add(i+side, i, 1)
			}
			if y+1 < side {
				b.Add(i, i+1, 1)
				b.Add(i+1, i, 1)
			}
		}
	}
	m := b.Build()
	weights := make([]int, n)
	for i := range weights {
		weights[i] = m.RowNNZ(i)
	}
	const parts = 8

	bfs := AssignByOrder(BFSOrder(m), weights, parts)
	bfsCut := CutEdges(m, bfs)

	r := rand.New(rand.NewSource(5))
	perm := r.Perm(n)
	random := AssignByOrder(perm, weights, parts)
	randomCut := CutEdges(m, random)

	if bfsCut*3 > randomCut {
		t.Errorf("BFS cut %d not clearly below random cut %d", bfsCut, randomCut)
	}
	if bv := BoundaryVertices(m, bfs); bv <= 0 || bv > n {
		t.Errorf("boundary vertices = %d", bv)
	}
}

func TestParallelProductMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(60)
		b := sparse.NewCBuilder(n, n)
		for k := 0; k < 6*n; k++ {
			b.Add(r.Intn(n), r.Intn(n), complex(r.NormFloat64(), r.NormFloat64()))
		}
		m := b.Build()
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		skip := make([]bool, n)
		for i := range skip {
			skip[i] = r.Intn(5) == 0
		}
		want := make([]complex128, n)
		m.VecMulSkipRows(x, want, skip)

		weights := make([]int, n)
		for i := range weights {
			weights[i] = m.RowNNZ(i) + 1
		}
		parts := 1 + r.Intn(4)
		pp := NewParallelProduct(BalancedRows(weights, parts), n)
		got := make([]complex128, n)
		pp.VecMulSkipRows(m, x, got, skip)
		for i := range got {
			d := got[i] - want[i]
			if real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The fused column sweeps write disjoint row ranges and reduce only a
// max, so the parallel forms must match the serial kernels bit for bit:
// the same y, the same z and the same squared norm.
func TestParallelFusedSweepsMatchSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(60)
		b := sparse.NewCBuilder(n, n)
		for k := 0; k < 6*n; k++ {
			b.Add(r.Intn(n), r.Intn(n), complex(r.NormFloat64(), r.NormFloat64()))
		}
		m := b.Build()
		vec := func() []complex128 {
			v := make([]complex128, n)
			for i := range v {
				v[i] = complex(r.NormFloat64(), r.NormFloat64())
			}
			return v
		}
		x, z := vec(), vec()
		skip := make([]bool, n)
		for i := range skip {
			skip[i] = r.Intn(5) == 0
		}
		weights := make([]int, n)
		for i := range weights {
			weights[i] = m.RowNNZ(i) + 1
		}
		pp := NewParallelProduct(BalancedRows(weights, 1+r.Intn(4)), n)

		want, got := make([]complex128, n), make([]complex128, n)
		if m.FixedPointSweepRange(x, want, skip, 0, 0, n) != pp.FixedPointSweep(m, x, got, skip) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}

		wantZ := append([]complex128(nil), z...)
		if m.SeriesSweepRange(x, want, wantZ, skip, 0, n) != pp.SeriesSweep(m, x, got, z, skip) {
			return false
		}
		for i := range got {
			if got[i] != want[i] || z[i] != wantZ[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
