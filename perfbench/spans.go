package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark from outside the program. Spans of one job, campaign or run share
// a Trace identifier; Parent is 0 for a root span.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// layer is the module a span's call belongs to: the name up to the first dot
// ("service.Submit" belongs to "service").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// spanLayers are the layers the traced pass reports self time for; "bench"
// is the benchmark's own root spans (a whole job, campaign or run).
var spanLayers = []string{"bench", "scenario", "core", "fd", "mpi", "checkpoint", "service", "ensemble"}

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so the untraced pass calls the same code with no spans.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do runs fn inside a span named name, a child of parent in trace. fn gets
// the span's ID so that its own calls can nest under it.
func (r *recorder) do(trace string, parent int64, name string, fn func(id int64)) {
	if r == nil {
		fn(0)
		return
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	start := time.Since(r.t0)
	fn(id)
	end := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartS: start.Seconds(), EndS: end.Seconds()})
	r.mu.Unlock()
}

// selfSeconds sums, per layer, each span's duration minus the part of it
// that its child spans cover.
func (r *recorder) selfSeconds() map[string]float64 {
	out := make(map[string]float64, len(spanLayers))
	for _, l := range spanLayers {
		out[l] = 0
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range r.spans {
		out[s.layer()] += (s.EndS - s.StartS) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartS < kids[j].StartS })
	var total, curS, curE float64
	open := false
	for _, k := range kids {
		s, e := max(k.StartS, parent.StartS), min(k.EndS, parent.EndS)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
