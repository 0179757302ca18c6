package pipeline

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math/cmplx"
	"net"
	"strings"
	"testing"
	"time"

	"hydra/internal/passage"
	"hydra/internal/smp"
)

// testFleet starts a fleet on loopback with small batches so work
// spreads across several assignments.
func testFleet(t *testing.T, opts FleetOptions) *Fleet {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(ln, opts)
	t.Cleanup(func() { f.Close() })
	return f
}

// fleetJob builds a density job tagged with a model fingerprint the
// fleet can route by.
func fleetJob(m *smp.Model, fp string, ts []float64) *Job {
	job := densityJob(m, ts)
	job.ModelFP = fp
	job.ModelStates = m.N()
	return job
}

func healthyWorkerModel(m *smp.Model, fp string) WorkerModel {
	return WorkerModel{
		Fingerprint: fp,
		States:      m.N(),
		Evaluator:   NewSolverEvaluator(m, passage.Options{}),
	}
}

// waitForWorkers blocks until n workers are connected (the fleet hands
// work to whoever is present, so tests that assert participation or
// inject faults first make sure their cast is on stage).
func waitForWorkers(t *testing.T, f *Fleet, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(f.Snapshot().Connected) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers connected", len(f.Snapshot().Connected), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rawV3Worker is a hand-driven protocol-v3 client for fault injection:
// the test controls exactly when it answers and when it drops dead.
type rawV3Worker struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	eval Evaluator
	spec *SolveSpec
}

func dialV3(t *testing.T, addr, name string, ads []modelAd, eval Evaluator) *rawV3Worker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := &rawV3Worker{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn), eval: eval}
	// Announces the literal previous generation: a rawV3Worker speaks
	// bare-framed v3, which the v4 master still serves for batch work.
	if err := w.enc.Encode(helloV2Msg{Version: 3, WorkerName: name, Models: ads}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	var welcome welcomeMsg
	if err := w.dec.Decode(&welcome); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if welcome.Reject != "" {
		t.Fatalf("handshake rejected: %s", welcome.Reject)
	}
	return w
}

// serveBatches answers up to maxPoints evaluated points, then invokes
// die. Returns how many points it answered.
func (w *rawV3Worker) serveBatches(maxPoints int, die func()) int {
	answered := 0
	for {
		var a assignBatchV3Msg
		if err := w.dec.Decode(&a); err != nil {
			return answered
		}
		if a.Done {
			return answered
		}
		if a.Header != nil {
			w.spec = &SolveSpec{
				Name:     a.Header.Name,
				Quantity: a.Header.Quantity,
				Targets:  a.Header.Targets,
			}
		}
		if answered >= maxPoints {
			die() // batch received, never answered: in flight when we die
			return answered
		}
		res := resultFrameV3Msg{RunID: a.RunID, Last: true, Frames: make([]pointFrameV3, len(a.Indices))}
		for i, idx := range a.Indices {
			vec, err := w.eval.EvaluateVector(a.Points[i], w.spec)
			fr := pointFrameV3{Index: idx, Total: len(vec), Data: vec}
			if err != nil {
				fr = pointFrameV3{Index: idx, Err: err.Error()}
			}
			res.Frames[i] = fr
		}
		if err := w.enc.Encode(res); err != nil {
			return answered
		}
		answered += len(a.Indices)
	}
}

// TestFleetFaultInjection is the resilience contract of §4's
// architecture: a fleet job survives one worker being killed mid-batch
// and another disconnecting mid-run — the master requeues their
// in-flight assignments — and a healthy worker that joins mid-run
// finishes the job with values identical to a single-worker reference.
func TestFleetFaultInjection(t *testing.T) {
	m := testModel(t)
	ts := []float64{0.3, 0.8, 1.6}
	const fp = "fp-fault"
	job := fleetJob(m, fp, ts)

	refVecs, _, err := Run(job.Spec(), func() Evaluator {
		return NewSolverEvaluator(m, passage.Options{})
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := job.ReadVectors(refVecs)

	fleet := testFleet(t, FleetOptions{BatchSize: 2, Logf: t.Logf})
	addr := fleet.Addr().String()
	ads := []modelAd{{Fingerprint: fp, States: m.N()}}

	// The killed worker answers 4 points, then drops the connection with
	// a batch in flight. The disconnecting worker answers 2 points, then
	// closes cleanly from its side mid-run. Both handshakes run on the
	// test goroutine (t.Fatal is only legal there); the spawned
	// goroutines just serve batches.
	killedWorker := dialV3(t, addr, "killed", ads, NewSolverEvaluator(m, passage.Options{}))
	disconnectedWorker := dialV3(t, addr, "disconnected", ads, NewSolverEvaluator(m, passage.Options{}))
	killed := make(chan int, 1)
	go func() {
		killed <- killedWorker.serveBatches(4, func() { killedWorker.conn.Close() })
	}()
	disconnected := make(chan int, 1)
	go func() {
		disconnected <- disconnectedWorker.serveBatches(2, func() {})
		disconnectedWorker.conn.Close()
	}()
	waitForWorkers(t, fleet, 2)

	type execResult struct {
		values [][]complex128
		stats  *RunStats
		err    error
	}
	execc := make(chan execResult, 1)
	go func() {
		values, stats, err := fleet.Execute(job.Spec(), nil)
		execc <- execResult{values, stats, err}
	}()

	// Both faulty workers must be gone before the healthy one joins, so
	// the healthy worker's arrival is a genuine mid-run join and the
	// faulty workers' lost batches can only complete through requeues.
	faultyPoints := <-killed + <-disconnected
	healthyDone := make(chan error, 1)
	go func() {
		healthyDone <- FleetWork(addr, []WorkerModel{healthyWorkerModel(m, fp)}, WorkerOptions{Name: "steady"})
	}()

	r := <-execc
	if r.err != nil {
		t.Fatalf("Execute: %v", r.err)
	}
	if faultyPoints >= len(job.Points) {
		t.Fatalf("faulty workers answered all %d points; the fault injection never engaged", len(job.Points))
	}
	if r.stats.Requeued == 0 {
		t.Error("master reported no requeued points despite two lost workers")
	}
	if r.stats.Evaluated != len(job.Points) {
		t.Errorf("evaluated %d points, want %d", r.stats.Evaluated, len(job.Points))
	}
	var steady bool
	for _, name := range r.stats.WorkerNames {
		if name == "steady" {
			steady = true
		}
	}
	if !steady {
		t.Errorf("healthy mid-run joiner absent from worker stats %v", r.stats.WorkerNames)
	}
	got := job.ReadVectors(r.values)
	for i := range got {
		if cmplx.Abs(got[i]-ref[i]) > 1e-12 {
			t.Fatalf("point %d: fleet %v vs reference %v", i, got[i], ref[i])
		}
	}
	fleet.Close()
	if err := <-healthyDone; err != nil {
		t.Errorf("healthy worker: %v", err)
	}
}

// TestFleetServesManyModelsByFingerprint checks the registry scenario:
// one fleet, workers holding different models, and each job routed only
// to workers advertising its fingerprint.
func TestFleetServesManyModelsByFingerprint(t *testing.T) {
	m := testModel(t)
	fleet := testFleet(t, FleetOptions{BatchSize: 4})
	addr := fleet.Addr().String()

	done := make(chan error, 2)
	go func() {
		done <- FleetWork(addr, []WorkerModel{healthyWorkerModel(m, "fp-A")}, WorkerOptions{Name: "holds-A"})
	}()
	go func() {
		done <- FleetWork(addr, []WorkerModel{healthyWorkerModel(m, "fp-B")}, WorkerOptions{Name: "holds-B"})
	}()
	waitForWorkers(t, fleet, 2)

	jobA := fleetJob(m, "fp-A", []float64{0.5})
	jobB := fleetJob(m, "fp-B", []float64{0.9})
	valsA, statsA, err := fleet.Execute(jobA.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	valsB, statsB, err := fleet.Execute(jobB.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(statsA.WorkerNames) != 1 || statsA.WorkerNames[0] != "holds-A" {
		t.Errorf("model A evaluated by %v, want only holds-A", statsA.WorkerNames)
	}
	if len(statsB.WorkerNames) != 1 || statsB.WorkerNames[0] != "holds-B" {
		t.Errorf("model B evaluated by %v, want only holds-B", statsB.WorkerNames)
	}
	refVecs, _, err := Run(jobA.Spec(), func() Evaluator {
		return NewSolverEvaluator(m, passage.Options{})
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := jobA.ReadVectors(refVecs)
	gotA := jobA.ReadVectors(valsA)
	for i := range gotA {
		if cmplx.Abs(gotA[i]-ref[i]) > 1e-12 {
			t.Fatalf("point %d differs from reference", i)
		}
	}
	_ = valsB
	fleet.Close()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestFleetRejectsV1Worker proves version negotiation end to end: a v3
// master refuses a legacy v1 worker, and because the welcome message
// carries the v1 ModelStates == -1 sentinel, the old binary fails its
// own readable "master rejected handshake" path instead of hanging or
// computing garbage.
func TestFleetRejectsV1Worker(t *testing.T) {
	m := testModel(t)
	fleet := testFleet(t, FleetOptions{})

	err := Work(fleet.Addr().String(), NewSolverEvaluator(m, passage.Options{}), m.N(), WorkerOptions{Name: "legacy"})
	if err == nil {
		t.Fatal("v1 worker was accepted by a v3 master")
	}
	if !strings.Contains(err.Error(), "rejected handshake") {
		t.Errorf("v1 worker error %q does not mention the rejected handshake", err)
	}
	if got := fleet.Snapshot().Rejected; got != 1 {
		t.Errorf("fleet counted %d rejections, want 1", got)
	}
}

// TestFleetRejectsFutureVersion pins the readable reject for a version
// the master does not speak.
func TestFleetRejectsFutureVersion(t *testing.T) {
	fleet := testFleet(t, FleetOptions{})
	conn, err := net.Dial("tcp", fleet.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(helloV2Msg{Version: 99, WorkerName: "tomorrow", Models: []modelAd{{Fingerprint: "x", States: 1}}}); err != nil {
		t.Fatal(err)
	}
	var welcome welcomeMsg
	if err := dec.Decode(&welcome); err != nil {
		t.Fatal(err)
	}
	if welcome.ModelStates != -1 {
		t.Errorf("reject welcome carries ModelStates %d, want the -1 sentinel", welcome.ModelStates)
	}
	for _, want := range []string{"v4", "v3", "v99", "tomorrow"} {
		if !strings.Contains(welcome.Reject, want) {
			t.Errorf("reject reason %q missing %q", welcome.Reject, want)
		}
	}
}

// TestFleetWorkerDetectsV1Master covers the opposite mismatch: a v2
// worker dialing a v1 master fails with a protocol-version error
// instead of waiting for assignments that never come.
func TestFleetWorkerDetectsV1Master(t *testing.T) {
	m := testModel(t)
	job := densityJob(m, []float64{0.5})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	served := make(chan error, 1)
	go func() {
		_, _, err := Serve(ln, job, nil, MasterOptions{ModelStates: m.N()})
		served <- err
	}()
	v2done := make(chan error, 1)
	go func() {
		v2done <- FleetWork(addr, []WorkerModel{healthyWorkerModel(m, "fp")}, WorkerOptions{Name: "modern"})
	}()
	// No worker can finish the job yet, so the master is still listening
	// when the v2 worker dials; the v1 worker that completes the job (and
	// lets Serve close its listener) starts only after the rejection.
	err = <-v2done
	v1done := make(chan error, 1)
	go func() {
		v1done <- Work(addr, NewSolverEvaluator(m, passage.Options{}), m.N(), WorkerOptions{Name: "good"})
	}()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err == nil {
		t.Fatal("v2 worker did not detect the v1 master")
	}
	if !strings.Contains(err.Error(), "rejected") && !strings.Contains(err.Error(), "wire protocol") {
		t.Errorf("v2-worker error %q names neither a rejection nor a protocol mismatch", err)
	}
	if !errors.Is(err, ErrHandshakeRejected) {
		t.Errorf("v2-worker error %v is not ErrHandshakeRejected; reconnect loops could not tell it is permanent", err)
	}
	if err := <-v1done; err != nil {
		t.Errorf("v1 worker: %v", err)
	}
}

// TestFleetEvalErrorIsStructured checks that an evaluator failure
// aborts only the affected run — as a *PointError naming the worker and
// index — while the worker connection stays in the fleet.
func TestFleetEvalErrorIsStructured(t *testing.T) {
	m := testModel(t)
	const fp = "fp-err"
	fleet := testFleet(t, FleetOptions{BatchSize: 2})

	done := make(chan error, 1)
	go func() {
		done <- FleetWork(fleet.Addr().String(), []WorkerModel{{
			Fingerprint: fp, States: m.N(), Evaluator: failingEvaluator{},
		}}, WorkerOptions{Name: "brittle"})
	}()
	waitForWorkers(t, fleet, 1)

	job := fleetJob(m, fp, []float64{0.5})
	_, _, err := fleet.Execute(job.Spec(), nil)
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("Execute error %v is not a *PointError", err)
	}
	if pe.Worker != "brittle" {
		t.Errorf("PointError names worker %q, want brittle", pe.Worker)
	}
	if pe.Index < 0 || pe.Index >= len(job.Points) {
		t.Errorf("PointError index %d outside the job's %d points", pe.Index, len(job.Points))
	}
	if !strings.Contains(pe.Msg, "synthetic evaluator failure") {
		t.Errorf("PointError message %q lost the evaluator detail", pe.Msg)
	}
	// The worker survives its evaluation failure and is dismissed
	// cleanly when the fleet closes.
	if n := len(fleet.Snapshot().Connected); n != 1 {
		t.Errorf("%d workers connected after the failed run, want 1", n)
	}
	fleet.Close()
	if err := <-done; err != nil {
		t.Errorf("worker: %v", err)
	}
}

// TestFleetExecuteAfterCloseFails pins the terminal state.
func TestFleetExecuteAfterCloseFails(t *testing.T) {
	m := testModel(t)
	fleet := testFleet(t, FleetOptions{})
	fleet.Close()
	if _, _, err := fleet.Execute(fleetJob(m, "fp", []float64{0.5}).Spec(), nil); err == nil {
		t.Fatal("Execute succeeded on a closed fleet")
	}
}

// TestFleetWaitTimeout checks that a job for a model no worker holds
// fails with an actionable error once WaitTimeout passes, instead of
// hanging forever.
func TestFleetWaitTimeout(t *testing.T) {
	m := testModel(t)
	fleet := testFleet(t, FleetOptions{WaitTimeout: 200 * time.Millisecond})

	done := make(chan error, 1)
	go func() {
		done <- FleetWork(fleet.Addr().String(), []WorkerModel{healthyWorkerModel(m, "fp-other")}, WorkerOptions{Name: "bystander"})
	}()
	waitForWorkers(t, fleet, 1)

	_, _, err := fleet.Execute(fleetJob(m, "fp-wanted", []float64{0.5}).Spec(), nil)
	if err == nil || !strings.Contains(err.Error(), "fp-wanted") {
		t.Errorf("err = %v, want a no-capable-worker failure naming the model", err)
	}
	fleet.Close()
	<-done
}

// fleetBenchmarkEvaluator is a trivial evaluator for protocol-overhead
// measurements.
type fleetBenchmarkEvaluator struct{}

func (fleetBenchmarkEvaluator) EvaluateVector(s complex128, _ *SolveSpec) ([]complex128, error) {
	return []complex128{s * s}, nil
}

// BenchmarkFleetRoundTrip measures protocol overhead per point with a
// free evaluator: wire framing, batching and loopback latency only.
func BenchmarkFleetRoundTrip(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	fleet := NewFleet(ln, FleetOptions{BatchSize: 16})
	defer fleet.Close()
	done := make(chan error, 1)
	go func() {
		done <- FleetWork(ln.Addr().String(), []WorkerModel{{
			Fingerprint: "bench", States: 1, Evaluator: fleetBenchmarkEvaluator{},
		}}, WorkerOptions{Name: "bench"})
	}()
	for len(fleet.Snapshot().Connected) < 1 {
		time.Sleep(time.Millisecond)
	}
	points := make([]complex128, 256)
	for i := range points {
		points[i] = complex(float64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := &SolveSpec{
			Name: fmt.Sprintf("bench-%d", i), Quantity: PassageDensity,
			Targets: []int{0},
			Points:  points, ModelFP: "bench", ModelStates: 1,
		}
		if _, _, err := fleet.Execute(spec, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fleet.Close()
	<-done
}

// TestFleetRequireModelRejectsMismatch pins the one-shot master
// behaviour carried over from v1's handshake cross-check: a fleet
// started for one specific model (Model.ServeMaster) rejects workers
// that do not hold it — readably and permanently — instead of letting
// them idle unrouted while the master waits forever.
func TestFleetRequireModelRejectsMismatch(t *testing.T) {
	m := testModel(t)
	fleet := testFleet(t, FleetOptions{RequireFingerprint: "fp-right", RequireStates: m.N()})

	err := FleetWork(fleet.Addr().String(), []WorkerModel{healthyWorkerModel(m, "fp-wrong")}, WorkerOptions{Name: "stranger"})
	if !errors.Is(err, ErrHandshakeRejected) {
		t.Fatalf("mismatched worker got %v, want ErrHandshakeRejected", err)
	}
	if !strings.Contains(err.Error(), "fp-right") {
		t.Errorf("reject %q does not name the required model", err)
	}

	done := make(chan error, 1)
	go func() {
		done <- FleetWork(fleet.Addr().String(), []WorkerModel{healthyWorkerModel(m, "fp-right")}, WorkerOptions{Name: "match"})
	}()
	waitForWorkers(t, fleet, 1)
	fleet.Close()
	if err := <-done; err != nil {
		t.Errorf("matching worker: %v", err)
	}
}
