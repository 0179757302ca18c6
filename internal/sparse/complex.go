package sparse

import (
	"fmt"
	"sort"
)

// CMatrix is a complex-valued CSR matrix whose sparsity pattern is fixed
// at construction but whose values may be overwritten in place. The
// passage-time solver re-fills the same pattern for every Laplace-space
// point s, so the structure arrays are shared between all evaluations.
type CMatrix struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []complex128
}

// Dims returns the number of rows and columns.
func (m *CMatrix) Dims() (rows, cols int) { return m.rows, m.cols }

// NNZ returns the number of stored entries.
func (m *CMatrix) NNZ() int { return len(m.val) }

// At returns the value at (i, j) (zero outside the pattern). For tests and
// small matrices only.
func (m *CMatrix) At(i, j int) complex128 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.val[k]
	}
	return 0
}

// Row calls fn for every stored entry (j, v) of row i in column order.
func (m *CMatrix) Row(i int, fn func(j int, v complex128)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.val[k])
	}
}

// Values returns the value slice backing the matrix, ordered row-major to
// match the pattern handed to NewCMatrix. Overwriting it refreshes the
// matrix without reallocation.
func (m *CMatrix) Values() []complex128 { return m.val }

// SetRowZero zeroes every stored entry of row i. Used to make target
// states absorbing when forming U′ from U.
func (m *CMatrix) SetRowZero(i int) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		m.val[k] = 0
	}
}

// MulVec computes y = M·x.
func (m *CMatrix) MulVec(x, y []complex128) {
	if len(x) != m.cols || len(y) != m.rows {
		panic(fmt.Sprintf("sparse: CMatrix.MulVec dims %dx%d with |x|=%d |y|=%d", m.rows, m.cols, len(x), len(y)))
	}
	for i := 0; i < m.rows; i++ {
		var sum complex128
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			sum += m.val[k] * x[m.colIdx[k]]
		}
		y[i] = sum
	}
}

// VecMul computes y = x·M, the product of a row vector with the matrix.
// This is the core kernel of the Eq. (10) accumulator iteration.
func (m *CMatrix) VecMul(x, y []complex128) {
	if len(x) != m.rows || len(y) != m.cols {
		panic(fmt.Sprintf("sparse: CMatrix.VecMul dims %dx%d with |x|=%d |y|=%d", m.rows, m.cols, len(x), len(y)))
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			y[m.colIdx[k]] += xi * m.val[k]
		}
	}
}

// MulVecSkipRows computes y = M′·x where M′ is M with every flagged row
// zeroed: y_i = 0 for skipped rows, the ordinary row product otherwise.
// This is the column-form counterpart of VecMulSkipRows — the kernel of
// the all-sources iteration, which propagates a target-indicator column
// backwards through U′ instead of a source row forwards.
func (m *CMatrix) MulVecSkipRows(x, y []complex128, skip []bool) {
	if len(x) != m.cols || len(y) != m.rows || len(skip) != m.rows {
		panic("sparse: CMatrix.MulVecSkipRows dimension mismatch")
	}
	m.MulVecSkipRowsRange(x, y, skip, 0, m.rows)
}

// MulVecSkipRowsRange computes rows [lo, hi) of M′·x into y (fully
// overwriting that range). Unlike the row-vector form, output rows are
// independent, so partitioned workers write disjoint ranges of y
// directly with no reduction step.
func (m *CMatrix) MulVecSkipRowsRange(x, y []complex128, skip []bool, lo, hi int) {
	if len(x) != m.cols || len(y) != m.rows || len(skip) != m.rows {
		panic("sparse: CMatrix.MulVecSkipRowsRange dimension mismatch")
	}
	if lo < 0 || hi > m.rows || lo > hi {
		panic(fmt.Sprintf("sparse: row range [%d,%d) outside %d rows", lo, hi, m.rows))
	}
	for i := lo; i < hi; i++ {
		if skip[i] {
			y[i] = 0
			continue
		}
		var sum complex128
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			sum += m.val[k] * x[m.colIdx[k]]
		}
		y[i] = sum
	}
}

// rowProduct returns the product of row i with x, accumulated in entry
// order exactly as MulVecSkipRowsRange does; slicing the row first lets
// the compiler drop the per-entry bounds checks on the value and index
// arrays.
func (m *CMatrix) rowProduct(i int, x []complex128) complex128 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	cols := m.colIdx[lo:hi]
	vals := m.val[lo:hi][:len(cols)]
	var sum complex128
	for e, c := range cols {
		sum += vals[e] * x[c]
	}
	return sum
}

// FixedPointSweepRange runs rows [lo, hi) of one pinned fixed-point
// sweep y = e⃗ + M′·x in a single pass: pinned rows are set to 1, every
// other row gets the ordinary row product (the same entry order and
// arithmetic as MulVecSkipRowsRange, so y is bitwise that product), and
// the largest squared increment |y_i − x_{off+i}|² over the range is
// returned. off is the global index of the matrix's first row: 0 for a
// full matrix, the block's first row for a row block (NewRowBlock) whose
// y is block-local while x spans the full column space.
func (m *CMatrix) FixedPointSweepRange(x, y []complex128, pin []bool, off, lo, hi int) float64 {
	if len(x) != m.cols || len(y) != m.rows || len(pin) != m.rows || off < 0 || off+m.rows > len(x) {
		panic("sparse: CMatrix.FixedPointSweepRange dimension mismatch")
	}
	if lo < 0 || hi > m.rows || lo > hi {
		panic(fmt.Sprintf("sparse: row range [%d,%d) outside %d rows", lo, hi, m.rows))
	}
	var worst float64
	for i := lo; i < hi; i++ {
		sum := complex128(1)
		if !pin[i] {
			sum = m.rowProduct(i, x)
		}
		y[i] = sum
		d := sum - x[off+i]
		if a := real(d)*real(d) + imag(d)*imag(d); a > worst {
			worst = a
		}
	}
	return worst
}

// SeriesSweepRange runs rows [lo, hi) of one accumulator-series sweep in
// a single pass: y = M′·x with skip rows zeroed (bitwise the
// MulVecSkipRowsRange product), z += y, and the largest squared
// magnitude |y_i|² over the range is returned. z is indexed like y.
func (m *CMatrix) SeriesSweepRange(x, y, z []complex128, skip []bool, lo, hi int) float64 {
	if len(x) != m.cols || len(y) != m.rows || len(z) != m.rows || len(skip) != m.rows {
		panic("sparse: CMatrix.SeriesSweepRange dimension mismatch")
	}
	if lo < 0 || hi > m.rows || lo > hi {
		panic(fmt.Sprintf("sparse: row range [%d,%d) outside %d rows", lo, hi, m.rows))
	}
	var worst float64
	for i := lo; i < hi; i++ {
		var sum complex128
		if !skip[i] {
			sum = m.rowProduct(i, x)
		}
		y[i] = sum
		z[i] += sum
		if a := real(sum)*real(sum) + imag(sum)*imag(sum); a > worst {
			worst = a
		}
	}
	return worst
}

// RowSlices returns the column-index and value slices of row i, sharing
// the matrix's backing arrays. It exists for tight multi-RHS loops (the
// block Gauss–Seidel sweep) that would otherwise pay a closure call per
// stored entry.
func (m *CMatrix) RowSlices(i int) (cols []int, vals []complex128) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// VecMulSkipRows computes y = x·M as VecMul does, but treats the rows
// whose indices are flagged in skip as if they were zero. This implements
// the U′ product of Eq. (10) without materialising a second matrix: U′ is
// U with every target-state row zeroed.
func (m *CMatrix) VecMulSkipRows(x, y []complex128, skip []bool) {
	if len(x) != m.rows || len(y) != m.cols || len(skip) != m.rows {
		panic("sparse: CMatrix.VecMulSkipRows dimension mismatch")
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 || skip[i] {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			y[m.colIdx[k]] += xi * m.val[k]
		}
	}
}

// Pattern describes the sparsity structure of a CMatrix independent of its
// values. The same Pattern is shared across all s-point evaluations.
type Pattern struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
}

// NewPattern assembles a pattern from coordinate entries. Duplicate
// positions are merged. The returned index slice idx maps every input
// entry k to the value-slot it occupies, so a caller can scatter values
// with vals[idx[k]] += v.
func NewPattern(rows, cols int, is, js []int) (p *Pattern, idx []int) {
	if len(is) != len(js) {
		panic("sparse: NewPattern coordinate slices of unequal length")
	}
	for k := range is {
		if is[k] < 0 || is[k] >= rows || js[k] < 0 || js[k] >= cols {
			panic(fmt.Sprintf("sparse: NewPattern entry (%d,%d) outside %dx%d", is[k], js[k], rows, cols))
		}
	}
	p = &Pattern{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	order := sortCOO(is, js)
	idx = make([]int, len(is))
	prevI, prevJ := -1, -1
	for _, k := range order {
		i, j := is[k], js[k]
		if i != prevI || j != prevJ {
			p.rowPtr[i+1]++
			p.colIdx = append(p.colIdx, j)
			prevI, prevJ = i, j
		}
		idx[k] = len(p.colIdx) - 1
	}
	for i := 0; i < rows; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
	}
	return p, idx
}

// NNZ returns the number of positions in the pattern.
func (p *Pattern) NNZ() int { return len(p.colIdx) }

// Row calls fn for every column j of pattern row i, in column order —
// the adjacency view a partition planner consumes (distinct
// destinations, no values needed).
func (p *Pattern) Row(i int, fn func(j int)) {
	for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
		fn(p.colIdx[k])
	}
}

// RowNNZ returns the number of positions in pattern row i.
func (p *Pattern) RowNNZ(i int) int { return p.rowPtr[i+1] - p.rowPtr[i] }

// Dims returns the pattern dimensions.
func (p *Pattern) Dims() (rows, cols int) { return p.rows, p.cols }

// NewCMatrix returns a zero-valued matrix over the pattern. The structure
// arrays are shared with the pattern (and any sibling matrices); only the
// value slice is freshly allocated.
func (p *Pattern) NewCMatrix() *CMatrix {
	return &CMatrix{
		rows:   p.rows,
		cols:   p.cols,
		rowPtr: p.rowPtr,
		colIdx: p.colIdx,
		val:    make([]complex128, len(p.colIdx)),
	}
}

// RowRange returns the half-open interval [start, end) of value slots
// occupied by rows [lo, hi) of the pattern — the offsets a caller needs
// to scatter into a row-block matrix (see NewRowBlock) from indices
// computed against the full pattern.
func (p *Pattern) RowRange(lo, hi int) (start, end int) {
	if lo < 0 || hi > p.rows || lo > hi {
		panic(fmt.Sprintf("sparse: row range [%d,%d) outside %d rows", lo, hi, p.rows))
	}
	return p.rowPtr[lo], p.rowPtr[hi]
}

// NewRowBlock returns a zero-valued matrix holding only rows [lo, hi) of
// the pattern, still addressed by the full column space: the block is a
// (hi-lo)×cols CSR matrix whose column indices are shared with the
// pattern (global state numbers), so MulVec and friends take full-length
// x vectors and produce block-length y vectors. Row i of the pattern is
// row i-lo of the block. Only the value slice is freshly allocated, and
// it covers just the block's entries — this is what lets a distributed
// worker hold 1/W of the kernel values for an n-state model.
func (p *Pattern) NewRowBlock(lo, hi int) *CMatrix {
	start, end := p.RowRange(lo, hi)
	rowPtr := make([]int, hi-lo+1)
	for i := lo; i <= hi; i++ {
		rowPtr[i-lo] = p.rowPtr[i] - start
	}
	return &CMatrix{
		rows:   hi - lo,
		cols:   p.cols,
		rowPtr: rowPtr,
		colIdx: p.colIdx[start:end],
		val:    make([]complex128, end-start),
	}
}

// NewCSRMatrix wraps pre-assembled CSR structure arrays in a
// zero-valued matrix; ownership of rowPtr and colIdx transfers to the
// matrix. It exists for callers that compute a custom structure directly
// (e.g. a permuted kernel row block) instead of going through a
// Pattern. Column indices must lie in [0, cols); per-row column order is
// the caller's responsibility (At requires ascending order).
func NewCSRMatrix(rows, cols int, rowPtr, colIdx []int) *CMatrix {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) {
		panic("sparse: NewCSRMatrix malformed row structure")
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			panic(fmt.Sprintf("sparse: NewCSRMatrix row %d has negative extent", i))
		}
	}
	for _, j := range colIdx {
		if j < 0 || j >= cols {
			panic(fmt.Sprintf("sparse: NewCSRMatrix column %d outside %d columns", j, cols))
		}
	}
	return &CMatrix{
		rows:   rows,
		cols:   cols,
		rowPtr: rowPtr,
		colIdx: colIdx,
		val:    make([]complex128, len(colIdx)),
	}
}

// CBuilder accumulates coordinate entries for a complex CSR matrix,
// summing duplicates, mirroring Builder.
type CBuilder struct {
	rows, cols int
	is, js     []int
	vs         []complex128
}

// NewCBuilder returns a builder for a rows×cols complex matrix.
func NewCBuilder(rows, cols int) *CBuilder {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	return &CBuilder{rows: rows, cols: cols}
}

// Add records the entry (i, j) = v.
func (b *CBuilder) Add(i, j int, v complex128) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) outside %dx%d", i, j, b.rows, b.cols))
	}
	b.is = append(b.is, i)
	b.js = append(b.js, j)
	b.vs = append(b.vs, v)
}

// Build assembles the CSR matrix, summing duplicates.
func (b *CBuilder) Build() *CMatrix {
	p, idx := NewPattern(b.rows, b.cols, b.is, b.js)
	m := p.NewCMatrix()
	for k, slot := range idx {
		m.val[slot] += b.vs[k]
	}
	return m
}

// VecMulSkipRowsRange accumulates the contribution of rows [lo, hi) of
// x·M into y, skipping flagged rows and WITHOUT zeroing y first. It is
// the building block for partitioned (multi-goroutine) vector–matrix
// products: each worker owns a row range and a private output buffer,
// and the buffers are summed afterwards.
func (m *CMatrix) VecMulSkipRowsRange(x, y []complex128, skip []bool, lo, hi int) {
	if len(x) != m.rows || len(y) != m.cols || len(skip) != m.rows {
		panic("sparse: CMatrix.VecMulSkipRowsRange dimension mismatch")
	}
	if lo < 0 || hi > m.rows || lo > hi {
		panic(fmt.Sprintf("sparse: row range [%d,%d) outside %d rows", lo, hi, m.rows))
	}
	for i := lo; i < hi; i++ {
		xi := x[i]
		if xi == 0 || skip[i] {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			y[m.colIdx[k]] += xi * m.val[k]
		}
	}
}

// RowNNZ returns the number of stored entries in row i.
func (m *CMatrix) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }
