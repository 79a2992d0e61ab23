package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one (0 for a root). Probe spans
// time a layer's public function out of band, on the same inputs after
// the request completed; they have no parent and count toward no self
// time.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
}

// layer is the span name's layer prefix ("portfolio.run" → "portfolio").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Span ids of one request are fixed slots, so the request's client,
// handler, run and candidate spans can name their parents without
// shared maps; probes take ids above the request range.
const (
	slotClient = iota
	slotHandler
	slotRun
	slotCandidate // first of up to maxCandidates candidate slots
	maxCandidates = 12
	slotsPerReq   = slotCandidate + maxCandidates
)

func spanID(req int64, slot int) int64 { return req*slotsPerReq + int64(slot) + 1 }

// tracer keeps spans in memory; write dumps them at the end of a run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	probe int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a finished span. A nil tracer records nothing, so
// untraced code paths pass nil.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// timeProbe runs f once as an out-of-band probe span and returns its
// duration.
func (t *tracer) timeProbe(req int64, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.mu.Lock()
	t.probe++
	t.spans = append(t.spans, span{ID: -t.probe, Req: req, Name: name, Probe: true,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return end.Sub(start)
}

// selfTimes returns, per layer, the summed self time of its in-band
// spans: each span's duration minus the part of its interval that its
// child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if !s.Probe && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Probe {
			continue
		}
		out[s.layer()] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// durations maps each request to the duration of its span called name.
func (t *tracer) durations(name string) map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name && !s.Probe {
			out[s.Req] = time.Duration(s.End - s.Start)
		}
	}
	return out
}

// requests counts the requests with in-band spans.
func (t *tracer) requests() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[int64]bool{}
	for _, s := range t.spans {
		if !s.Probe {
			seen[s.Req] = true
		}
	}
	return len(seen)
}
