package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a timing's tail may be reported at,
// highest first. A tail is reported only at a level with at least
// minBeyond samples above it, so a p99 needs 1,000 samples.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

const minBeyond = 10

// percentile is the nearest-rank p-quantile of ascending samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rank(n, p)-1]
}

// rank is the 1-based nearest-rank position of the p-quantile. The
// slack keeps p·n products such as 0.9·100 = 90.00000000000001 from
// rounding up a rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples ranked above the nearest-rank p-quantile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailLevel is the highest ladder percentile with at least minBeyond
// samples beyond it, or 0 when even the median has fewer.
func tailLevel(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// median of unsorted samples; the mean of the middle two for even n.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is a timing distribution as reported: the median, the
// highest tail the sample count supports, and the count itself.
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: percentile(s, 0.5), TailP: tailLevel(len(s))}
	if out.TailP > 0 {
		out.Tail = percentile(s, out.TailP)
	}
	return out
}

// op is one open-loop request. Times are offsets from the loop's start:
// Due is when the schedule said to send, Sent when the generator did,
// Done when the answer arrived.
type op struct {
	Class           string
	Due, Sent, Done time.Duration
	OK              bool
}

// latency is timed from the due time, so a stall also charges the
// requests queued behind it.
func (o op) latency() time.Duration { return o.Done - o.Due }

// lateness is how far behind schedule the generator sent the request.
func (o op) lateness() time.Duration { return max(o.Sent-o.Due, 0) }

// good reports an answered request within its class's latency limit;
// a failed request misses every limit.
func (o op) good(limit time.Duration) bool { return o.OK && o.latency() <= limit }

// goodput is requests per second answered within their class's limit
// over the offered window.
func goodput(ops []op, limits map[string]time.Duration, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	n := 0
	for _, o := range ops {
		if o.good(limits[o.Class]) {
			n++
		}
	}
	return float64(n) / window.Seconds()
}

// tally is the failure accounting of one phase: operations attempted,
// answered correctly, failed (error or wrong answer) and late (answered
// but past the latency limit).
type tally struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Late      int `json:"late"`
}

// ledger keys tallies by phase ("setup", "solve", "quantile", ...).
type ledger map[string]*tally

func (l ledger) record(phase string, ok, late bool) {
	t := l[phase]
	if t == nil {
		t = &tally{}
		l[phase] = t
	}
	t.Attempted++
	switch {
	case !ok:
		t.Failed++
	case late:
		t.Late++
	default:
		t.Succeeded++
	}
}

// totals sums the ledger. Late operations were answered correctly, so
// they are not failed here; missed reports them with the failures, as
// each missed its latency limit.
func (l ledger) totals() (attempted, failed, missed int) {
	for _, t := range l {
		attempted += t.Attempted
		failed += t.Failed
		missed += t.Failed + t.Late
	}
	return attempted, failed, missed
}
