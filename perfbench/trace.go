package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Start and End are seconds from the tracer's epoch; Req
// ties the spans of one workload run or one request together.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Req    string  `json:"req"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run measures end-to-end metrics.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID and
// the function that closes it.
func (t *tracer) begin(name, req string, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch).Seconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
		t.mu.Unlock()
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanTotal is the per-name roll-up of a trace.
type spanTotal struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes rolls spans up by name. A span's self time is its duration
// minus the part of its interval that its children cover; children that
// run in parallel are merged first, so overlap is not subtracted twice.
func selfTimes(spans []span) map[string]spanTotal {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanTotal)
	for _, s := range spans {
		tot := out[s.Name]
		tot.Count++
		tot.TotalS += s.End - s.Start
		tot.SelfS += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = tot
	}
	return out
}

// covered measures the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total := 0.0
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}
