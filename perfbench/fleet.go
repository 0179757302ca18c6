package main

import (
	"errors"
	"fmt"
	"math/cmplx"
	"net"
	"sync"
	"time"

	"hydra"
	"hydra/internal/passage"
)

// fleetHarness is a loopback TCP fleet whose workers run in this
// process, each connected through its own socket.
type fleetHarness struct {
	ln    *countingListener
	fleet *hydra.Fleet
	wg    sync.WaitGroup
	errs  []error
}

// startFleet opens the master, starts the workers and waits until they
// have all joined with the model; it returns the join time.
func startFleet(m *hydra.Model) (*fleetHarness, time.Duration, error) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	h := &fleetHarness{ln: &countingListener{Listener: raw}, errs: make([]error, workers)}
	// hydra-serve's default conduct: warm start on, shard-inner 0.
	h.fleet = hydra.NewFleet(h.ln, hydra.FleetOptions{ShardOptions: passage.Options{WarmStart: true}})
	start := time.Now()
	wopts := &hydra.Options{}
	wopts.Solver.WarmStart = true
	for i := 0; i < workers; i++ {
		h.wg.Add(1)
		go func(i int) {
			defer h.wg.Done()
			h.errs[i] = m.RunWorkerWith(raw.Addr().String(), hydra.WorkerOptions{Name: fmt.Sprintf("w%d", i)}, wopts)
		}(i)
	}
	for len(h.fleet.Snapshot().Connected) < workers {
		if time.Since(start) > time.Minute {
			h.close()
			return nil, 0, fmt.Errorf("only %d of %d workers joined", len(h.fleet.Snapshot().Connected), workers)
		}
		time.Sleep(time.Millisecond)
	}
	return h, time.Since(start), nil
}

// close dismisses the workers and waits for them to return.
func (h *fleetHarness) close() error {
	h.fleet.Close()
	h.wg.Wait()
	for i, err := range h.errs {
		if err != nil {
			return fmt.Errorf("fleet worker %d: %w", i, err)
		}
	}
	return nil
}

// probeFleet is the traced run's fleet layer: the workload's spec with
// Options.Shard = 2 over a loopback TCP fleet of 2 RunWorkerWith
// workers, conducted as hydra-serve does by default. It solves once,
// sets the pipeline wire, fleet and shard metrics from that solve, and
// gates every entry of its vectors against mono, the in-process pool's
// vectors of the same spec.
func (r *run) probeFleet(m *hydra.Model, targets []int, mono [][]complex128) error {
	_, endJoin := r.tr.begin("pipeline.fleet.join", r.name, 0)
	h, join, err := startFleet(m)
	endJoin()
	r.led.record("join", err == nil, false)
	if err != nil {
		return err
	}
	r.set("pipeline.fleet.join_s", join.Seconds())
	opts := &hydra.Options{Backend: h.fleet, Shard: workers}
	opts.Solver.WarmStart = r.cfg.WarmStart
	spec, err := m.NewPassageSpec(r.name+"-shard", targets, r.cfg.Times, false, opts)
	if err != nil {
		h.close()
		return err
	}
	bytes0, writes0 := h.ln.bytes.Load(), h.ln.writes.Load()
	_, end := r.tr.begin("hydra.run_spec.shard", r.name, 0)
	vr, err := m.RunSpec(spec, nil, opts)
	end()
	r.led.record("solve", err == nil, false)
	if cerr := h.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	st := vr.Stats
	r.set("pipeline.wire_bytes", float64(h.ln.bytes.Load()-bytes0))
	r.set("pipeline.wire_writes", float64(h.ln.writes.Load()-writes0))
	r.set("pipeline.fleet.requeued", float64(st.Requeued))
	r.set("pipeline.shard.sweeps", float64(st.ShardSweeps))
	r.set("pipeline.shard.exchanged_values", float64(st.ShardExchanged))
	r.set("pipeline.shard.compute_s", time.Duration(st.ShardComputeNS).Seconds())
	r.set("pipeline.shard.exchange_s", time.Duration(st.ShardExchangeNS).Seconds())
	r.set("pipeline.shard.boundary_vertices", float64(st.ShardBoundary))

	d, err := maxVectorDiff(vr.Vectors, mono)
	r.led.record("check", err == nil, false)
	switch {
	case err != nil:
		r.fail("comparing the sharded solve with the in-process solve: %v", err)
	case !(d <= r.cfg.GateVec):
		r.fail("sharded solve differs from the in-process solve by %.3g", d)
	}
	r.record["shard_vs_inproc_max_abs_diff"] = d
	return nil
}

// maxVectorDiff is the largest entry-wise |got − want| of two vector
// sets of the same shape.
func maxVectorDiff(got, want [][]complex128) (float64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d vectors, reference has %d", len(got), len(want))
	}
	worst := 0.0
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return 0, errors.New("vector lengths differ from the reference")
		}
		for j, v := range got[i] {
			worst = max(worst, cmplx.Abs(v-want[i][j]))
		}
	}
	return worst, nil
}
