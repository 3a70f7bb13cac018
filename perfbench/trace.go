package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRec is one span of the benchmark's own trace: a call the
// benchmark made into a package's public API, or a part of such a call
// laid out from the phase timers the package exposes (Derived). Wait
// spans (blocking on a result another goroutine produces) cover time
// but do no work, so they are never charged to a layer. Ref names the
// request a span serves when its work runs on another goroutine (a
// queued job's ID on the client's span and on every shard's span).
type spanRec struct {
	Run     string `json:"run"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Ref     string `json:"ref,omitempty"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Wait    bool   `json:"wait,omitempty"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []spanRec
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// span is an open span; end closes it.
type span struct {
	t   *tracer
	rec spanRec
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span under parent (nil for a root).
func (t *tracer) begin(parent *span, name, layer string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, spanRec{}) // reserve the id
	t.mu.Unlock()
	s := &span{t: t, rec: spanRec{Run: t.run, ID: id, Name: name, Layer: layer, StartNS: t.now()}}
	if parent != nil {
		s.rec.Parent = parent.rec.ID
	}
	return s
}

// wait opens a span that blocks on work done elsewhere.
func (t *tracer) wait(parent *span, name, layer string) *span {
	s := t.begin(parent, name, layer)
	if s != nil {
		s.rec.Wait = true
	}
	return s
}

func (s *span) setRef(ref string) {
	if s != nil {
		s.rec.Ref = ref
	}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.EndNS = s.t.now()
	s.t.mu.Lock()
	s.t.spans[s.rec.ID-1] = s.rec
	s.t.mu.Unlock()
}

// part is one phase of a closed span, measured by the program's own
// phase timers rather than by the benchmark.
type part struct {
	name, layer string
	dur         time.Duration
	parts       []part
}

// derive lays parts out back to back from the start of the closed span
// s, clipped to its end, as derived child spans. Phase timers give
// durations, not positions, so this is exact for the layer totals of a
// sequential call and approximate only in where inside s each phase sat.
func (s *span) derive(parts []part) {
	if s == nil {
		return
	}
	s.t.deriveUnder(s.rec, parts)
}

func (t *tracer) deriveUnder(parent spanRec, parts []part) {
	at := parent.StartNS
	for _, p := range parts {
		if p.dur <= 0 {
			continue
		}
		end := min(at+p.dur.Nanoseconds(), parent.EndNS)
		t.mu.Lock()
		rec := spanRec{Run: t.run, ID: int64(len(t.spans) + 1), Parent: parent.ID,
			Name: p.name, Layer: p.layer, StartNS: at, EndNS: end, Derived: true}
		t.spans = append(t.spans, rec)
		t.mu.Unlock()
		t.deriveUnder(rec, p.parts)
		at = end
	}
}

// attribution is the traced wall time of one measured phase split into
// layer self times plus the part no busy span covers. Where k busy
// self intervals overlap (concurrent executors and clients), each is
// charged 1/k of the overlap, so the layers and the remainder add up
// to the wall time exactly.
type attribution struct {
	wall       float64
	layers     map[string]float64
	unassigned float64
}

// attribute charges the interval of root to the layers of every busy
// span's self intervals (its interval minus its children's).
func (t *tracer) attribute(root *span) attribution {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	lo, hi := root.rec.StartNS, root.rec.EndNS

	children := make(map[int64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type event struct {
		at    int64
		delta int
		layer string
	}
	var events []event
	for _, s := range spans {
		if s.Wait || s.ID == 0 || s.ID == root.rec.ID {
			continue
		}
		for _, iv := range selfIntervals(s, children[s.ID]) {
			a, b := max(iv[0], lo), min(iv[1], hi)
			if a < b {
				events = append(events, event{a, +1, s.Layer}, event{b, -1, s.Layer})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].delta < events[j].delta
	})

	at := attribution{wall: float64(hi-lo) / 1e9, layers: make(map[string]float64)}
	active := make(map[string]int)
	total := 0
	prev := lo
	for _, e := range events {
		if seg := float64(e.at-prev) / 1e9; seg > 0 {
			if total == 0 {
				at.unassigned += seg
			} else {
				for layer, n := range active {
					at.layers[layer] += seg * float64(n) / float64(total)
				}
			}
		}
		prev = e.at
		active[e.layer] += e.delta
		total += e.delta
	}
	at.unassigned += float64(hi-prev) / 1e9
	return at
}

// selfIntervals is s's interval minus the union of its children's.
func selfIntervals(s spanRec, kids []spanRec) [][2]int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var out [][2]int64
	at := s.StartNS
	for _, k := range kids {
		if k.StartNS > at {
			out = append(out, [2]int64{at, min(k.StartNS, s.EndNS)})
		}
		at = max(at, k.EndNS)
	}
	if at < s.EndNS {
		out = append(out, [2]int64{at, s.EndNS})
	}
	return out
}

// writeJSONL writes the host line and every span, one JSON object per
// line.
func (t *tracer) writeJSONL(path string, host hostInfo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"run": t.run, "host": host}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
