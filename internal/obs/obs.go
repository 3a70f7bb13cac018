// Package obs is the zero-dependency observability layer of the
// Harpocrates reproduction: a metrics registry (counters, gauges and
// histograms with atomic hot paths), a structured JSONL event log with
// run/iteration/campaign spans (trace.go), and wall-clock phase timers.
//
// Everything is nil-safe: a nil *Observer, *Registry, *Tracer, *Span,
// *Counter, *Gauge or *Histogram accepts every call as a no-op, so
// instrumented code needs no conditionals and pays only a nil check
// when observation is disabled. Instrumentation is purely
// observational — it never changes the trajectory of the loop or a
// campaign (the RNG streams are untouched).
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. Names ending in
// ".ns" or ".wall_ns" are rendered as durations by WriteSummary.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// AddDuration accumulates d in nanoseconds.
func (c *Counter) AddDuration(d time.Duration) { c.Add(d.Nanoseconds()) }

// Load returns the current value (0 on a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 holding the latest value of a measurement.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Load returns the current value (0 on a nil gauge).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is one bucket per power of two of an int64 observation.
const histBuckets = 64

// Histogram aggregates int64 observations into power-of-two buckets
// (bucket i counts values whose bit length is i). It is lock-free on the
// observation path; quantiles are approximated by bucket upper bounds.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	minP1   atomic.Int64 // min+1; 0 means no observation yet
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (clamped to [0, MaxInt64-1]).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if v == math.MaxInt64 {
		v--
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.minP1.Load()
		if old != 0 && old-1 <= v {
			break
		}
		if h.minP1.CompareAndSwap(old, v+1) {
			break
		}
	}
	for {
		old := h.max.Load()
		if old >= v {
			break
		}
		if h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))%histBuckets].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile estimates the q-quantile (q in [0,1]). The extremes are exact
// (the recorded min and max); in between, the observations of the bucket
// holding the q-th rank are taken as evenly spread over the part of the
// bucket inside [min, max], so the estimate never leaves the recorded
// range.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	lo, hi := h.minP1.Load()-1, h.max.Load()
	if q <= 0 {
		return lo
	}
	if q >= 1 {
		return hi
	}
	rank := q * float64(n-1)
	var seen int64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 || float64(seen+c) <= rank {
			seen += c
			continue
		}
		// Bucket i holds the values of bit length i: [2^(i-1), 2^i - 1].
		var bLo, bHi int64
		if i > 0 {
			bLo = int64(1) << uint(i-1)
			bHi = bLo<<1 - 1
			if i == 63 {
				bHi = math.MaxInt64
			}
		}
		bLo, bHi = max(bLo, lo), min(bHi, hi)
		if bHi <= bLo {
			return bLo
		}
		frac := min((rank-float64(seen)+0.5)/float64(c), 1)
		return bLo + int64(frac*float64(bHi-bLo))
	}
	return hi
}

// Registry is a concurrent-safe named collection of counters, gauges and
// histograms. Metrics are created on first use and live for the
// registry's lifetime; the per-metric hot paths are atomic and never
// touch the registry lock.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed (nil on a
// nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// names returns the sorted keys of a metric map.
func names[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// isDurationName reports whether a counter name denotes nanoseconds.
func isDurationName(name string) bool {
	return strings.HasSuffix(name, ".ns") || strings.HasSuffix(name, "_ns")
}

// WriteSummary renders the end-of-run metrics table: a per-component
// phase breakdown (wall-clock phase timers as a share of the measured
// total), then all counters, gauges and histograms in sorted order.
func (r *Registry) WriteSummary(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	r.writePhaseTables(w)

	if len(r.counters) > 0 {
		fmt.Fprintf(w, "counters:\n")
		for _, name := range names(r.counters) {
			v := r.counters[name].Load()
			if isDurationName(name) {
				fmt.Fprintf(w, "  %-40s %12v\n", name, time.Duration(v))
			} else {
				fmt.Fprintf(w, "  %-40s %12d\n", name, v)
			}
		}
	}
	if len(r.gauges) > 0 {
		fmt.Fprintf(w, "gauges:\n")
		for _, name := range names(r.gauges) {
			fmt.Fprintf(w, "  %-40s %12.4f\n", name, r.gauges[name].Load())
		}
	}
	if len(r.hists) > 0 {
		fmt.Fprintf(w, "histograms:            count         mean          p50          p90          max\n")
		for _, name := range names(r.hists) {
			h := r.hists[name]
			if isDurationName(name) {
				fmt.Fprintf(w, "  %-18s %9d %12v %12v %12v %12v\n", name, h.Count(),
					time.Duration(int64(h.Mean())), time.Duration(h.Quantile(0.5)),
					time.Duration(h.Quantile(0.9)), time.Duration(h.max.Load()))
			} else {
				fmt.Fprintf(w, "  %-18s %9d %12.1f %12d %12d %12d\n", name, h.Count(),
					h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.max.Load())
			}
		}
	}
}

// writePhaseTables groups counters named "<comp>.phase.<name>.wall_ns"
// into one table per component, each phase shown with its share of the
// component total ("<comp>.run.wall_ns" when recorded, else the phase
// sum). Caller holds r.mu.
func (r *Registry) writePhaseTables(w io.Writer) {
	type phase struct {
		name string
		ns   int64
	}
	comps := map[string][]phase{}
	for name, c := range r.counters {
		i := strings.Index(name, ".phase.")
		if i < 0 || !strings.HasSuffix(name, ".wall_ns") {
			continue
		}
		comp := name[:i]
		pname := strings.TrimSuffix(name[i+len(".phase."):], ".wall_ns")
		comps[comp] = append(comps[comp], phase{pname, c.Load()})
	}
	for _, comp := range names(comps) {
		ps := comps[comp]
		sort.Slice(ps, func(a, b int) bool { return ps[a].ns > ps[b].ns })
		var sum int64
		for _, p := range ps {
			sum += p.ns
		}
		total := sum
		if c, ok := r.counters[comp+".run.wall_ns"]; ok && c.Load() > 0 {
			total = c.Load()
		}
		fmt.Fprintf(w, "%s phases (wall clock, total %v):\n", comp, time.Duration(total))
		for _, p := range ps {
			fmt.Fprintf(w, "  %-24s %12v  %5.1f%%\n", p.name, time.Duration(p.ns),
				100*float64(p.ns)/float64(max(total, 1)))
		}
		fmt.Fprintf(w, "  %-24s %12v  %5.1f%% of wall clock accounted\n", "(sum)",
			time.Duration(sum), 100*float64(sum)/float64(max(total, 1)))
	}
}

// Observer bundles a metrics registry and a tracer; either may be nil.
// All methods are nil-safe, so a nil *Observer disables observation.
type Observer struct {
	reg *Registry
	tr  *Tracer
}

// New returns an observer over reg and tr, or nil when both are nil.
func New(reg *Registry, tr *Tracer) *Observer {
	if reg == nil && tr == nil {
		return nil
	}
	return &Observer{reg: reg, tr: tr}
}

// Enabled reports whether any observation sink is attached.
func (o *Observer) Enabled() bool { return o != nil && (o.reg != nil || o.tr != nil) }

// Registry returns the attached registry (nil-safe).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the attached tracer (nil-safe).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// Counter returns the named counter from the registry (nil-safe).
func (o *Observer) Counter(name string) *Counter { return o.Registry().Counter(name) }

// Gauge returns the named gauge from the registry (nil-safe).
func (o *Observer) Gauge(name string) *Gauge { return o.Registry().Gauge(name) }

// Histogram returns the named histogram from the registry (nil-safe).
func (o *Observer) Histogram(name string) *Histogram { return o.Registry().Histogram(name) }

// Span starts a root trace span (nil-safe).
func (o *Observer) Span(name string, fields Fields) *Span { return o.Tracer().Span(name, fields) }

// Event emits a parentless point event (nil-safe).
func (o *Observer) Event(name string, fields Fields) { o.Tracer().Event(name, fields) }

// Phase starts a wall-clock phase timer; the returned stop function
// accumulates the elapsed time into the counter "<name>.wall_ns".
// Phases named "<comp>.phase.<p>" are grouped by WriteSummary into a
// per-component breakdown against "<comp>.run.wall_ns".
func (o *Observer) Phase(name string) func() {
	if o == nil || o.reg == nil {
		return func() {}
	}
	c := o.reg.Counter(name + ".wall_ns")
	start := time.Now()
	return func() { c.AddDuration(time.Since(start)) }
}
