package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {0, 1}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTailLevelNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0},      // the median has only 5 beyond it
		{20, 0.5},    // 10 beyond the median, 5 beyond p75
		{40, 0.75},   // 10 beyond p75
		{99, 0.75},   // 9 beyond p90
		{100, 0.9},   // 10 beyond p90
		{199, 0.9},   // 9 beyond p95
		{200, 0.95},  // 10 beyond p95
		{999, 0.95},  // 9 beyond p99
		{1000, 0.99}, // 10 beyond p99
		{10000, 0.999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

func TestSummarizeReportsSupportedTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50 || s.TailP != 0.9 || s.Tail != 90 {
		t.Errorf("summarize(100..1) = %+v, want n 100, p50 50, tail p90 = 90", s)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", m)
	}
}

func TestDueTimeLatencyAndLateness(t *testing.T) {
	ms := time.Millisecond
	// Due at 10 ms, sent 4 ms late behind a stall, answered at 30 ms:
	// the latency counts the stall.
	o := op{Class: "q", Due: 10 * ms, Sent: 14 * ms, Done: 30 * ms, OK: true}
	if o.latency() != 20*ms {
		t.Errorf("latency = %v, want 20ms from the due time", o.latency())
	}
	if o.lateness() != 4*ms {
		t.Errorf("lateness = %v, want 4ms", o.lateness())
	}
	early := op{Due: 10 * ms, Sent: 9 * ms, Done: 12 * ms, OK: true}
	if early.lateness() != 0 {
		t.Errorf("a request sent ahead of its due time is not late, got %v", early.lateness())
	}
	if !o.good(20*ms) || o.good(19*ms) {
		t.Error("good must accept latency at the limit and reject beyond it")
	}
	failed := op{Due: 0, Sent: 0, Done: ms, OK: false}
	if failed.good(time.Hour) {
		t.Error("a failed request must miss every limit")
	}
}

func TestGoodput(t *testing.T) {
	ms := time.Millisecond
	limits := map[string]time.Duration{"q": 10 * ms, "c": 100 * ms}
	ops := []op{
		{Class: "q", Due: 0, Done: 5 * ms, OK: true},            // good
		{Class: "q", Due: 0, Done: 15 * ms, OK: true},           // late
		{Class: "c", Due: 0, Done: 50 * ms, OK: true},           // good under its own limit
		{Class: "c", Due: 0, Done: 50 * ms, OK: false},          // failed
		{Class: "q", Due: 100 * ms, Done: 109 * ms, OK: true},   // good: timed from due
		{Class: "q", Due: 100 * ms, Done: 111 * ms, OK: true},   // late
		{Class: "q", Due: 200 * ms, Done: 2000 * ms, OK: false}, // failed and late
	}
	if got, want := goodput(ops, limits, 2*time.Second), 3/2.0; got != want {
		t.Errorf("goodput = %v, want %v", got, want)
	}
	if got := goodput(ops, limits, 0); got != 0 {
		t.Errorf("goodput over an empty window = %v, want 0", got)
	}
}

func TestLedgerCountsLateAsMissed(t *testing.T) {
	l := ledger{}
	l.record("q", true, false)
	l.record("q", true, true)
	l.record("q", false, false)
	l.record("setup", true, false)
	if q := *l["q"]; q != (tally{Attempted: 3, Succeeded: 1, Failed: 1, Late: 1}) {
		t.Errorf("tally = %+v", q)
	}
	if a, f, m := l.totals(); a != 4 || f != 1 || m != 2 {
		t.Errorf("totals = %d attempted, %d failed, %d missed; want 4, 1, 2", a, f, m)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 10},
		// Two parallel children overlapping on [2,3], one running past
		// the parent's end: covered = [1,4] ∪ [6,10] = 7.
		{ID: 2, Parent: 1, Name: "eval", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "eval", Start: 2, End: 4},
		{ID: 4, Parent: 1, Name: "eval", Start: 6, End: 12},
		// A grandchild is charged to its parent only.
		{ID: 5, Parent: 4, Name: "fill", Start: 6, End: 7},
	}
	got := selfTimes(spans)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if r := got["run"]; r.Count != 1 || !near(r.TotalS, 10) || !near(r.SelfS, 3) {
		t.Errorf("run = %+v, want total 10 self 3", r)
	}
	if e := got["eval"]; e.Count != 3 || !near(e.TotalS, 10) || !near(e.SelfS, 9) {
		t.Errorf("eval = %+v, want total 10 self 9", e)
	}
	if f := got["fill"]; !near(f.SelfS, 1) {
		t.Errorf("fill = %+v, want self 1", f)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id, end := tr.begin("x", "r", 0)
	end()
	if id != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
	tr = newTracer()
	id, end = tr.begin("x", "r", 0)
	_, endKid := tr.begin("y", "r", id)
	endKid()
	end()
	if s := tr.snapshot(); len(s) != 2 || s[0].Parent != id || s[1].ID != id {
		t.Errorf("spans = %+v", s)
	}
}

func TestScheduleSendsExactShares(t *testing.T) {
	r := &run{rng: rand.New(rand.NewSource(7))}
	s := &serveMix{r: r, grids: map[string][][]float64{}, sources: [][]int{{0}, {1, 2}}, cfg: workloadConfig{
		RateRPS: 100, Mix: map[string]float64{"quantile": 0.86, "curve": 0.1, "batch": 0.04},
		Levels: []float64{0.5, 0.99}, GridPool: 2, FreshGridShare: 0.2,
		CurvePoints: 3, CurveRange: [2]float64{5, 60}, BatchPoints: 1, BatchRange: [2]float64{2, 30},
		FreshAt: 0.5, FreshMinVoted: 16,
	}}
	window := 12 * time.Second
	reqs := s.schedule(window)
	count := map[string]int{}
	for i, q := range reqs {
		count[q.Class]++
		if q.Due < 0 || q.Due >= window || (i > 0 && q.Due < reqs[i-1].Due) {
			t.Fatalf("request %d due at %v: not in order within the window", i, q.Due)
		}
	}
	want := map[string]int{"quantile": 1032, "curve": 120, "batch": 48, "fresh": 1}
	for c, n := range want {
		if count[c] != n {
			t.Errorf("%s requests = %d, want %d (all counts %v)", c, count[c], n, count)
		}
	}
	if b := beyond(count["quantile"], 0.99); b < minBeyond {
		t.Errorf("quantile p99 has %d samples beyond it, want at least %d", b, minBeyond)
	}
}

func TestMaxVectorDiff(t *testing.T) {
	want := [][]complex128{{1 + 2i, -3}, {0.5i, 4}}
	got := [][]complex128{{1 + 2i, -3}, {0.5i + 3e-7, 4}}
	if d, err := maxVectorDiff(got, want); err != nil || math.Abs(d-3e-7) > 1e-15 {
		t.Errorf("maxVectorDiff = %v, %v; want 3e-7", d, err)
	}
	if _, err := maxVectorDiff(got[:1], want); err == nil {
		t.Error("fewer vectors than the reference must be an error")
	}
	if _, err := maxVectorDiff([][]complex128{{1}, {2, 3}}, want); err == nil {
		t.Error("a shorter vector than the reference's must be an error")
	}
}
