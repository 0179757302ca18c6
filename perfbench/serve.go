package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"hydra"
	"hydra/internal/lt"
	"hydra/internal/server"
)

// serveHarness is a hydra server on a loopback port with its client.
type serveHarness struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan error
}

func startServer() (*serveHarness, error) {
	srv, err := server.New(server.Config{Workers: workers, MaxConcurrent: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &serveHarness{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		// The open loop keeps up to maxInFlight requests outstanding;
		// keep that many connections alive between them.
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: maxInFlight},
		},
		done: make(chan error, 1),
	}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

func (h *serveHarness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// post sends a JSON body and decodes a 2xx answer into out.
func (h *serveHarness) post(path, reqID string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (h *serveHarness) stats() (serverStats, error) {
	var st serverStats
	resp, err := h.client.Get(h.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	Cache struct {
		PointHits int64 `json:"point_hits"`
		PointMiss int64 `json:"point_miss"`
	} `json:"cache"`
	Scheduler struct {
		ComputedPoints int64 `json:"computed_points"`
		Coalesced      int64 `json:"coalesced"`
		SurfaceBuilds  int64 `json:"surface_builds"`
		SurfaceHits    int64 `json:"surface_hits"`
	} `json:"scheduler"`
}

// jobReply is the part of a job record the benchmark reads.
type jobReply struct {
	Coalesced bool `json:"coalesced"`
	Result    *struct {
		Values    []float64   `json:"values"`
		Curves    [][]float64 `json:"curves"`
		Quantiles []float64   `json:"quantiles"`
		Stats     *struct {
			WarmStarted int                `json:"warm_starts"`
			SweepsSaved int64              `json:"sweeps_saved"`
			Phases      map[string]float64 `json:"phases_seconds"`
		} `json:"stats"`
	} `json:"result"`
}

// maxInFlight bounds the open loop's outstanding requests (and so its
// goroutines); a request waiting for a slot is charged from its due time.
const maxInFlight = 64

// request is one scheduled open-loop request.
type request struct {
	Due     time.Duration
	Class   string // quantile, curve, batch or fresh
	Route   string // quantile, passage or batch
	Body    map[string]any
	Targets string // key of the target set a quantile asks about
	Sources [][]int
	Levels  []float64
	Times   []float64
	Points  int // s-points inverted to answer it
}

// serveMix holds what one serve-mix run works with.
type serveMix struct {
	r       *run
	cfg     workloadConfig
	lib     *hydra.Model // the library copy: target sets and the reference CDF
	targets map[string][]int
	sources [][]int
	grids   map[string][][]float64
}

// schedule draws the seeded request sequence for the window: rate ×
// window arrivals at seeded uniform times (a Poisson process given its
// count), each class taking its exact share of them in seeded order, so
// every seed sends the same number of each class. The fresh target set
// is asked for once, at its fixed fraction of the window.
func (s *serveMix) schedule(window time.Duration) []request {
	r, cfg := s.r, s.cfg
	n := int(math.Round(cfg.RateRPS * window.Seconds()))
	classes := make([]string, 0, n)
	for _, c := range []string{"quantile", "curve"} {
		for k := int(math.Round(cfg.Mix[c] * float64(n))); k > 0 && len(classes) < n; k-- {
			classes = append(classes, c)
		}
	}
	for len(classes) < n {
		classes = append(classes, "batch")
	}
	r.rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(r.rng.Float64() * float64(window))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	reqs := make([]request, 0, n+1)
	for i, c := range classes {
		reqs = append(reqs, s.draw(c, dues[i]))
	}
	key := fmt.Sprintf("voted>=%d", cfg.FreshMinVoted)
	reqs = append(reqs, s.quantile("fresh", key, [][]int{{0}}, time.Duration(cfg.FreshAt*float64(window))))
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Due < reqs[j].Due })
	return reqs
}

func (s *serveMix) draw(class string, due time.Duration) request {
	r, cfg := s.r, s.cfg
	src := s.sources[r.rng.Intn(len(s.sources))]
	switch class {
	case "quantile":
		return s.quantile(class, "primary", [][]int{src}, due)
	case "curve":
		times := s.grid("curve", cfg.CurvePoints, cfg.CurveRange)
		return request{
			Due: due, Class: class, Route: "passage", Sources: [][]int{src}, Times: times,
			Points: len(times) * hydra.EulerPointsPerT(),
			Body:   map[string]any{"sources": src, "targets": s.targets["primary"], "times": times, "cdf": true},
		}
	default:
		sets := [][]int{src, s.sources[r.rng.Intn(len(s.sources))]}
		times := s.grid("batch", cfg.BatchPoints, cfg.BatchRange)
		return request{
			Due: due, Class: class, Route: "batch", Sources: sets, Times: times,
			Points: len(times) * hydra.EulerPointsPerT() * len(sets),
			Body: map[string]any{"kind": "transient", "source_sets": sets,
				"targets": s.targets["transient"], "times": times},
		}
	}
}

func (s *serveMix) quantile(class, targets string, sources [][]int, due time.Duration) request {
	queries := []map[string]any{}
	for _, p := range s.cfg.Levels {
		queries = append(queries, map[string]any{"sources": sources[0], "p": p})
	}
	return request{
		Due: due, Class: class, Route: "quantile", Targets: targets, Sources: sources, Levels: s.cfg.Levels,
		Body: map[string]any{"targets": s.targets[targets], "queries": queries},
	}
}

// grid is a seeded time grid: a repeat from the class's pool (cache
// hits and coalescing) or, with the fresh share, a new one (solves).
func (s *serveMix) grid(class string, points int, span [2]float64) []float64 {
	r := s.r
	fresh := func() []float64 {
		ts := make([]float64, points)
		for i := range ts {
			ts[i] = math.Round((span[0]+r.rng.Float64()*(span[1]-span[0]))*1000) / 1000
		}
		sort.Float64s(ts)
		return ts
	}
	if len(s.grids[class]) < s.cfg.GridPool || r.rng.Float64() < s.cfg.FreshGridShare {
		g := fresh()
		if len(s.grids[class]) < s.cfg.GridPool {
			s.grids[class] = append(s.grids[class], g)
		}
		return g
	}
	return s.grids[class][r.rng.Intn(len(s.grids[class]))]
}

// answer is one request's outcome.
type answer struct {
	op
	reply jobReply
	err   error
}

// openLoop sends every request at its due time, whatever is still
// outstanding, and waits for all answers. Unpaced, it sends each as
// soon as fewer than maxInFlight are outstanding: the closed loop that
// measures capacity.
func (s *serveMix) openLoop(h *serveHarness, modelID string, reqs []request, paced bool) []answer {
	out := make([]answer, len(reqs))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		q := &reqs[i]
		if d := q.Due - time.Since(start); paced && d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			id := fmt.Sprintf("%s-%d-%d", s.r.name, s.r.seed, i)
			_, end := s.r.tr.begin("server."+q.Route, id, 0)
			a := answer{op: op{Class: q.Class, Due: q.Due, Sent: time.Since(start)}}
			a.err = h.post("/v1/models/"+modelID+"/"+q.Route, id, q.Body, &a.reply)
			if a.err == nil && a.reply.Result == nil {
				a.err = errors.New("answer carries no result")
			}
			a.Done = time.Since(start)
			a.OK = a.err == nil
			end()
			out[i] = a
		}(i)
	}
	wg.Wait()
	return out
}

func runServeMix(r *run) error {
	cfg := r.cfg
	src := votingSpec(cfg.System)
	lib, err := hydra.LoadSpec(src)
	if err != nil {
		return err
	}
	s := &serveMix{r: r, cfg: cfg, lib: lib, grids: map[string][][]float64{}, targets: map[string][]int{
		"primary":   allVoted(lib, cfg.System[0]),
		"transient": allVotedOperational(lib, cfg.System),
	}}
	s.targets[fmt.Sprintf("voted>=%d", cfg.FreshMinVoted)] = allVoted(lib, cfg.FreshMinVoted)
	// Source sets are marking predicates, as in the paper's measures:
	// the initial marking, then "k voters have voted" for seeded k.
	s.sources = [][]int{{lib.InitialState()}}
	for _, k := range r.rng.Perm(cfg.System[0] - 1)[:cfg.SourceSets-1] {
		s.sources = append(s.sources, votedExactly(lib, k))
	}
	workingSet(r, lib, 3)

	// Set-up: server start, DNAmaca upload with the primary target set
	// prewarmed, until that surface is resident.
	var h *serveHarness
	var modelID string
	var setups, uploads []float64
	for r.moreSetups(setups) {
		if h != nil {
			if err := h.close(); err != nil {
				return err
			}
			h = nil
		}
		runtime.GC() // a closed server's surfaces must not count in peak_rss_mb
		id, end := r.tr.begin("setup", r.name, 0)
		if r.tr != nil {
			if err := r.probeFrontEnd(src, id); err != nil {
				return err
			}
		}
		start := time.Now()
		hh, mid, up, err := s.setup(src, id)
		end()
		r.led.record("setup", err == nil, false)
		if err != nil {
			return err
		}
		h, modelID = hh, mid
		setups = append(setups, time.Since(start).Seconds())
		uploads = append(uploads, up.Seconds()*1e3)
	}
	defer h.close()
	r.set("setup_s", median(setups))
	r.record["setup_s_each"] = setups
	r.set("server.upload_ms", median(uploads))

	if r.tr != nil {
		if err := s.probeLibrary(); err != nil {
			return err
		}
	}

	reqs := s.schedule(r.seconds)
	if r.capacity {
		return s.capacity(h, modelID, reqs)
	}
	before, err := h.stats()
	if err != nil {
		return err
	}
	cpu0 := cpuSeconds()
	answers := s.openLoop(h, modelID, reqs, true)
	var wall time.Duration
	for _, a := range answers {
		wall = max(wall, a.Done)
	}
	// How busy the offered rate keeps the two cores: this process's CPU
	// time over the mix, the load generator's share included.
	r.record["mix_cpu_utilization"] = (cpuSeconds() - cpu0) / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	after, err := h.stats()
	if err != nil {
		return err
	}
	s.report(reqs, answers, before, after)
	runtime.GC() // start the quiet solves without the mix's garbage
	quietReqs, quietAnswers, err := s.quietSolves(h, modelID)
	if err != nil {
		return err
	}
	if err := s.check(append(reqs, quietReqs...), append(answers, quietAnswers...)); err != nil {
		return err
	}
	if r.tr != nil {
		return s.traceOverhead(h, modelID)
	}
	return nil
}

// quietSolves asks the idle server, one request at a time and for
// QuietShare of the measured window, for curves on fresh time grids,
// each answered by a new solve; solve_s is the fastest of them, for the
// reason measure gives, and their median goes into the record. Inside
// the mix the same requests queue behind whatever the seeded traffic is
// doing, which is what the mix measures but too variable to bound a
// solve by.
func (s *serveMix) quietSolves(h *serveHarness, modelID string) ([]request, []answer, error) {
	var reqs []request
	var answers []answer
	var secs []float64
	lo, hi := s.cfg.CurveRange[0], s.cfg.CurveRange[1]
	quiet := time.Duration(s.cfg.QuietShare * float64(s.r.seconds))
	for i, window := 0, time.Now(); len(secs) < minSolves || time.Since(window) < quiet; i++ {
		// A stratified grid, one seeded time in each of QuietPoints equal
		// slices of the curve range: every quiet solve covers the range
		// alike, so the seed moves their cost little.
		times := make([]float64, s.cfg.QuietPoints)
		for k := range times {
			u := (float64(k) + s.r.rng.Float64()) / float64(len(times))
			times[k] = math.Round((lo+u*(hi-lo))*1000) / 1000
		}
		src := s.sources[s.r.rng.Intn(len(s.sources))]
		q := request{
			Class: "quiet", Route: "passage", Sources: [][]int{src}, Times: times,
			Body: map[string]any{"sources": src, "targets": s.targets["primary"], "times": times, "cdf": true},
		}
		id := fmt.Sprintf("%s-%d-quiet-%d", s.r.name, s.r.seed, i)
		_, end := s.r.tr.begin("server."+q.Route, id, 0)
		start := time.Now()
		var reply jobReply
		err := h.post("/v1/models/"+modelID+"/"+q.Route, id, q.Body, &reply)
		secs = append(secs, time.Since(start).Seconds())
		end()
		s.r.led.record("quiet", err == nil, false)
		if err != nil {
			return nil, nil, err
		}
		reqs = append(reqs, q)
		answers = append(answers, answer{op: op{Class: q.Class, OK: true}, reply: reply})
	}
	s.r.set("solve_s", slices.Min(secs))
	s.r.record["quiet_solve_s_median"] = median(secs)
	s.r.record["quiet_solve_s_each"] = secs
	return reqs, answers, nil
}

// capacity sends the seeded mix closed-loop, each request as soon as a
// slot frees, gates the answers and records the throughput: the
// saturation point the offered rate is set against.
func (s *serveMix) capacity(h *serveHarness, modelID string, reqs []request) error {
	answers := s.openLoop(h, modelID, reqs, false)
	var wall time.Duration
	ok := 0
	for _, a := range answers {
		wall = max(wall, a.Done)
		s.r.led.record("capacity", a.OK, false)
		if a.OK {
			ok++
		}
	}
	s.r.record["capacity_rps"] = float64(ok) / wall.Seconds()
	s.r.record["capacity_requests"] = len(reqs)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests answered in %.3f s closed-loop: %.1f req/s\n",
		s.r.name, ok, wall.Seconds(), float64(ok)/wall.Seconds())
	return s.check(reqs, answers)
}

// cpuSeconds is the user and system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// setup starts a server, uploads the spec text with the primary target
// set prewarmed and waits until that surface is resident.
func (s *serveMix) setup(src string, parent int64) (*serveHarness, string, time.Duration, error) {
	h, err := startServer()
	if err != nil {
		return nil, "", 0, err
	}
	var info struct {
		ID string `json:"id"`
	}
	_, end := s.r.tr.begin("server.upload", s.r.name, parent)
	start := time.Now()
	err = h.post("/v1/models", "", map[string]any{
		"name": s.r.name, "spec": src,
		"prewarm": []map[string]any{{"targets": s.targets["primary"]}},
	}, &info)
	upload := time.Since(start)
	end()
	_, end = s.r.tr.begin("server.prewarm", s.r.name, parent)
	defer end()
	for err == nil {
		var st serverStats
		if st, err = h.stats(); err == nil && st.Scheduler.SurfaceBuilds > 0 {
			return h, info.ID, upload, nil
		}
		if time.Since(start) > time.Minute {
			err = errors.New("prewarmed surface not resident after a minute")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.close()
	return nil, "", 0, err
}

// report turns the answers and the server's counter deltas into metrics.
func (s *serveMix) report(reqs []request, answers []answer, before, after serverStats) {
	r, cfg := s.r, s.cfg
	limits := map[string]time.Duration{}
	for c, ms := range cfg.LimitMS {
		limits[c] = time.Duration(ms * float64(time.Millisecond))
	}
	lat := map[string][]float64{}
	route := map[string][]float64{}
	var late, fresh []float64
	ops := make([]op, len(answers))
	var fill, solve, invert float64
	var warm, saved, ltPoints int64
	for i, a := range answers {
		ops[i] = a.op
		r.led.record(a.Class, a.OK, a.OK && !a.good(limits[a.Class]))
		if a.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s request %d: %v\n", r.name, a.Class, i, a.err)
			continue
		}
		ms := float64(a.latency().Microseconds()) / 1e3
		lat[a.Class] = append(lat[a.Class], ms)
		route[reqs[i].Route] = append(route[reqs[i].Route], float64((a.Done-a.Sent).Microseconds())/1e3)
		late = append(late, float64(a.lateness().Microseconds())/1e3)
		switch {
		case a.Class == "fresh":
			fresh = append(fresh, a.latency().Seconds())
		}
		// Solver figures count once per computation: a quantile read
		// repeats its surface's build statistics, a coalesced request
		// its flight's.
		computed := (reqs[i].Route != "quantile" || a.Class == "fresh") && !a.reply.Coalesced
		if st := a.reply.Result.Stats; st != nil && computed {
			fill += st.Phases["kernel_fill"]
			solve += st.Phases["solve"]
			invert += st.Phases["invert"]
			warm += int64(st.WarmStarted)
			saved += st.SweepsSaved
		}
		ltPoints += int64(reqs[i].Points)
	}
	r.set("first_quantile_s", median(fresh))
	r.record["first_quantile_s_each"] = fresh
	summaries := map[string]summary{}
	for c, xs := range lat {
		summaries[c] = summarize(xs)
	}
	r.record["latency_ms"] = summaries
	sorted := func(xs []float64) []float64 {
		ys := append([]float64(nil), xs...)
		sort.Float64s(ys)
		return ys
	}
	q, c := sorted(lat["quantile"]), sorted(lat["curve"])
	r.set("quantile_p50_ms", percentile(q, 0.5))
	r.setTail("quantile_p99_ms", q, 0.99)
	r.set("curve_p50_ms", percentile(c, 0.5))
	r.setTail("curve_p90_ms", c, 0.9)
	r.set("goodput_rps", goodput(ops, limits, r.seconds))
	attempted, _, missed := r.led.totals()
	r.set("failed_ratio", float64(missed)/float64(max(attempted, 1)))
	for _, rt := range []string{"quantile", "passage", "batch"} {
		r.set("server.route_p50_ms."+rt, percentile(sorted(route[rt]), 0.5))
	}
	r.setTail("server.generator_late_ms", sorted(late), 0.99)

	hits := after.Cache.PointHits - before.Cache.PointHits
	miss := after.Cache.PointMiss - before.Cache.PointMiss
	if hits+miss > 0 {
		r.set("server.result_cache_hit_ratio", float64(hits)/float64(hits+miss))
	}
	r.set("server.coalesced", float64(after.Scheduler.Coalesced-before.Scheduler.Coalesced))
	builds := after.Scheduler.SurfaceBuilds - before.Scheduler.SurfaceBuilds
	shits := after.Scheduler.SurfaceHits - before.Scheduler.SurfaceHits
	r.set("server.surface_builds", float64(builds))
	if builds+shits > 0 {
		r.set("server.surface_hit_ratio", float64(shits)/float64(builds+shits))
	}
	r.set("server.computed_points", float64(after.Scheduler.ComputedPoints-before.Scheduler.ComputedPoints))

	r.set("smp.kernel_fill_s", fill)
	if fill+solve > 0 {
		r.set("smp.fill_share", fill/(fill+solve))
	}
	var wall time.Duration
	for _, a := range answers {
		wall = max(wall, a.Done)
	}
	r.set("pipeline.busy_s", fill+solve)
	r.set("pipeline.idle_share", 1-(fill+solve)/(wall.Seconds()*float64(workers)))
	r.set("passage.warm_starts", float64(warm))
	r.set("passage.sweeps_saved", float64(saved))
	r.set("lt.points", float64(ltPoints))
	r.set("lt.invert_s", invert)
}

// check gates the answers: every quantile q must satisfy |F(q) − p|
// within the gate on the library's CDF for the same sources and
// targets, and every transient value must lie in [0, 1].
func (s *serveMix) check(reqs []request, answers []answer) error {
	r := s.r
	type probe struct {
		sources []int
		q, p    float64
	}
	probes := map[string][]probe{}
	seen := map[string]bool{}
	for i, a := range answers {
		q := reqs[i]
		if a.err != nil {
			continue
		}
		res := a.reply.Result
		switch q.Route {
		case "quantile":
			if len(res.Quantiles) != len(q.Levels) {
				r.fail("quantile request %d: %d answers for %d levels", i, len(res.Quantiles), len(q.Levels))
				continue
			}
			for k, p := range q.Levels {
				id := fmt.Sprint(q.Targets, q.Sources[0], p, res.Quantiles[k])
				if !seen[id] {
					seen[id] = true
					probes[q.Targets] = append(probes[q.Targets], probe{q.Sources[0], res.Quantiles[k], p})
				}
			}
		case "passage", "batch":
			curves := res.Curves
			if q.Route == "passage" {
				curves = [][]float64{res.Values}
			}
			for _, c := range curves {
				for k, v := range c {
					slack := inversionSlack(q.Times[k], passageEpsilon)
					if !(v >= -slack && v <= 1+slack) {
						r.fail("%s request %d: value %g at t=%g outside [0,1] by more than %.3g", q.Route, i, v, q.Times[k], slack)
					}
				}
			}
		}
	}
	opts := &hydra.Options{Workers: workers}
	// The reported error is the initial marking's, asked of every target
	// set in every run: the seeded source sets move the worst case from
	// seed to seed, so they are gated but not reported.
	worst, all := 0.0, 0.0
	for targets, ps := range probes {
		var sets [][]int
		var times []float64
		index := map[string]int{}
		for _, p := range ps {
			k := fmt.Sprint(p.sources)
			if _, ok := index[k]; !ok {
				index[k] = len(sets)
				sets = append(sets, p.sources)
			}
			times = append(times, p.q)
		}
		sort.Float64s(times)
		times = dedupe(times)
		res, err := s.lib.PassageCDFMulti(sets, s.targets[targets], times, opts)
		r.led.record("check", err == nil, false)
		if err != nil {
			return fmt.Errorf("reference CDF for %s: %w", targets, err)
		}
		for _, p := range ps {
			f := res[index[fmt.Sprint(p.sources)]].Values[sort.SearchFloat64s(times, p.q)]
			d := math.Abs(f - p.p)
			all = max(all, d)
			if fmt.Sprint(p.sources) == fmt.Sprint(s.sources[0]) {
				worst = max(worst, d)
			}
			if !(d <= s.cfg.GateQuantile) {
				r.fail("quantile %s sources %v p=%g: q=%g has F(q)=%g", targets, p.sources, p.p, p.q, f)
			}
		}
	}
	r.set("max_abs_err", worst)
	r.record["max_abs_err_all_sources"] = all
	return nil
}

// passageEpsilon is the solver's default convergence bound on each
// transform value.
const passageEpsilon = 1e-8

// inversionSlack bounds how far an inverted value can stray when every
// transform value it combines is off by at most eps: eps times the sum
// of the magnitudes of the Euler weights at t.
func inversionSlack(t, eps float64) float64 {
	e := lt.DefaultEuler()
	n := e.PointsPerT()
	v := make([]complex128, n)
	sum := 0.0
	for k := range v {
		var parts [2]float64
		for j, u := range []complex128{1, 1i} {
			v[k] = u
			f, err := e.Invert([]float64{t}, v)
			if err != nil {
				return math.Inf(1)
			}
			parts[j] = f[0]
		}
		v[k] = 0
		sum += math.Hypot(parts[0], parts[1])
	}
	return eps * sum
}

// allVotedOperational is the serve-mix transient target: every voter
// has voted and every polling and central unit is working. It is one
// state, which keeps a transient solve (one column per target state)
// cheap enough to serve beside the reads.
func allVotedOperational(m *hydra.Model, sys [3]int) []int {
	p2, p3, p5 := m.PlaceIndex("p2"), m.PlaceIndex("p3"), m.PlaceIndex("p5")
	return m.States(func(mk hydra.Marking) bool {
		return int(mk[p2]) == sys[0] && int(mk[p3]) == sys[1] && int(mk[p5]) == sys[2]
	})
}

func dedupe(sorted []float64) []float64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// probeLibrary times the library calls the server makes for the
// primary target set: one surface build, and the kernel sweep.
func (s *serveMix) probeLibrary() error {
	r := s.r
	opts := &hydra.Options{Workers: workers}
	opts.Solver.WarmStart = true
	_, end := r.tr.begin("hydra.passage_surface", r.name, 0)
	start := time.Now()
	surf, err := s.lib.PassageSurface(r.name, s.targets["primary"], nil, opts)
	r.set("hydra.surface_build_s", time.Since(start).Seconds())
	end()
	if err != nil {
		return err
	}
	r.set("hydra.surface_solves", float64(surf.Solves()))
	r.set("hydra.surface_grid_points", float64(len(surf.Times())))
	spec, err := s.lib.NewPassageSpec(r.name, s.targets["primary"], []float64{s.cfg.CurveRange[0]}, false, opts)
	if err != nil {
		return err
	}
	return r.probeKernel(s.lib, spec, s.targets["primary"], 0)
}

// traceOverhead times resident quantile reads alternately without and
// with a span, so drift in the machine's speed falls on both alike.
func (s *serveMix) traceOverhead(h *serveHarness, modelID string) error {
	const n = 200
	body := s.quantile("quantile", "primary", [][]int{s.sources[0]}, 0).Body
	var plain, traced time.Duration
	for i := 0; i < 2*n; i++ {
		tr := s.r.tr
		if i%2 == 0 {
			tr = nil
		}
		id := fmt.Sprintf("%s-overhead-%d", s.r.name, i)
		start := time.Now()
		_, end := tr.begin("server.quantile", id, 0)
		var reply jobReply
		err := h.post("/v1/models/"+modelID+"/quantile", id, body, &reply)
		end()
		if err != nil {
			return err
		}
		if tr == nil {
			plain += time.Since(start)
		} else {
			traced += time.Since(start)
		}
	}
	s.r.set("obs.trace_overhead_pct", 100*(traced.Seconds()-plain.Seconds())/plain.Seconds())
	return nil
}
