package main

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hydra"
	"hydra/internal/dnamaca"
	"hydra/internal/partition"
	"hydra/internal/petri"
	"hydra/internal/pipeline"
)

// pointLog collects per-s-point latencies from the pool's workers.
type pointLog struct {
	mu sync.Mutex
	ms []float64
}

func (l *pointLog) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.mu.Unlock()
}

// tracedEvaluator wraps the library's solver evaluator with one span
// per s-point. It forwards the phase and warm-start reports, so the
// pool's run statistics are the same as without it.
type tracedEvaluator struct {
	inner  *pipeline.SolverEvaluator
	tr     *tracer
	req    string
	parent int64
	log    *pointLog
}

func (e *tracedEvaluator) EvaluateVector(s complex128, spec *pipeline.SolveSpec) ([]complex128, error) {
	_, end := e.tr.begin("pipeline.evaluate", e.req, e.parent)
	start := time.Now()
	v, err := e.inner.EvaluateVector(s, spec)
	e.log.add(time.Since(start))
	end()
	return v, err
}

func (e *tracedEvaluator) LastPhases() (time.Duration, time.Duration, int) {
	return e.inner.LastPhases()
}

func (e *tracedEvaluator) LastWarmStart() (bool, int) { return e.inner.LastWarmStart() }

// probeFrontEnd times the two front-end layers LoadSpec runs, parse and
// compile, then state-space exploration, as separate spans.
func (r *run) probeFrontEnd(src string, parent int64) error {
	_, end := r.tr.begin("dnamaca.parse_compile", r.name, parent)
	start := time.Now()
	spec, err := dnamaca.Parse(src)
	var comp *dnamaca.Compiled
	if err == nil {
		comp, err = dnamaca.Compile(spec)
	}
	pc := time.Since(start)
	end()
	if err != nil {
		return err
	}
	_, end = r.tr.begin("petri.explore", r.name, parent)
	start = time.Now()
	ss, err := petri.Explore(comp.Net, petri.ExploreOptions{MaxStates: hydra.ExploreLimit})
	ex := time.Since(start)
	end()
	if err != nil {
		return err
	}
	r.frontEnd = append(r.frontEnd, [3]float64{pc.Seconds(), ex.Seconds(), float64(ss.NumStates())})
	r.set("dnamaca.parse_compile_s", median(column(r.frontEnd, 0)))
	r.set("petri.explore_s", median(column(r.frontEnd, 1)))
	r.set("petri.states_per_s", float64(ss.NumStates())/r.vals["petri.explore_s"])
	return nil
}

func column(rows [][3]float64, k int) []float64 {
	out := make([]float64, len(rows))
	for i, row := range rows {
		out[i] = row[k]
	}
	return out
}

// probeKernel times the CSR sweep the passage iteration runs, on the
// workload's own kernel at its first s-point, and computes the bytes
// and flops of one sweep. With shards above one it also plans the row
// blocks a fleet solve with that many shards uses and counts their
// boundary.
func (r *run) probeKernel(m *hydra.Model, spec *hydra.SolveSpec, targets []int, shards int) error {
	n := m.NumStates()
	k := m.SMP().NewKernelMatrix()
	m.SMP().FillKernel(spec.Points[0], k)
	skip := make([]bool, n)
	for _, t := range targets {
		skip[t] = true
	}
	rng := rand.New(rand.NewSource(r.seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
	}
	y := make([]complex128, n)
	_, end := r.tr.begin("sparse.mul_vec_skip_rows", r.name, 0)
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < 300*time.Millisecond; {
		t0 := time.Now()
		k.MulVecSkipRows(x, y, skip)
		per = append(per, float64(time.Since(t0).Nanoseconds()))
	}
	end()
	nnz := float64(k.NNZ())
	r.set("sparse.sweep_ns_per_nnz", median(per)/nnz)
	// Computed, not measured: values (complex128) and column indices
	// (int) once per stored entry, row pointers, the skip mask, x read
	// once and y written once — no cache reuse assumed.
	bytes := nnz*(16+8) + float64(n+1)*8 + float64(n) + float64(n)*16*2
	r.set("sparse.bytes_per_sweep", bytes)
	r.set("sparse.flops_per_byte", 8*nnz/bytes) // a complex multiply-add is 8 flops
	r.record["sparse_computed"] = "bytes_per_sweep and flops_per_byte are computed from array sizes"

	if shards > 1 {
		g := partition.MatrixGraph(k)
		_, end := r.tr.begin("partition.plan_blocks", r.name, 0)
		start := time.Now()
		plan := partition.PlanBlocks(g, shards, targets, 0)
		r.set("partition.plan_s", time.Since(start).Seconds())
		end()
		boundary, _ := partition.ExchangeCost(g, plan.Assignment(n))
		r.set("partition.boundary_vertices", float64(boundary))
	}
	return nil
}

// countingListener counts what the fleet master's connections carry.
type countingListener struct {
	net.Listener
	bytes, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.bytes.Add(int64(n))
	c.l.writes.Add(1)
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.bytes.Add(int64(n))
	return n, err
}
