package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("same name returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(0.25)
	if got := g.Load(); got != 0.25 {
		t.Fatalf("gauge = %f, want 0.25", got)
	}
}

func TestNilSafety(t *testing.T) {
	// Every call on nil observers/metrics/spans must be a no-op.
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer enabled")
	}
	o.Counter("x").Add(1)
	o.Gauge("x").Set(1)
	o.Histogram("x").Observe(1)
	o.Event("x", Fields{"a": 1})
	o.Phase("x")()
	sp := o.Span("x", nil)
	sp.Event("y", nil)
	sp.Child("z", nil).End(nil)
	sp.End(nil)
	if v := o.Counter("x").Load(); v != 0 {
		t.Fatalf("nil counter loaded %d", v)
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned a metric")
	}
	if New(nil, nil) != nil {
		t.Fatal("New(nil, nil) should be nil")
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1106 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if h.minP1.Load()-1 != 1 || h.max.Load() != 1000 {
		t.Fatalf("min=%d max=%d", h.minP1.Load()-1, h.max.Load())
	}
	if q := h.Quantile(0); q > 1 {
		t.Fatalf("p0 = %d", q)
	}
	if q := h.Quantile(1); q < 1000 {
		t.Fatalf("p100 = %d, want >= max bucket bound", q)
	}
	if h.Mean() != 1106.0/5 {
		t.Fatalf("mean = %f", h.Mean())
	}
}

// TestHistogramQuantileWithinRange: quantiles stay inside the recorded
// [min, max] and grow with q. Bucket upper bounds used to leak out: three
// 270 ms observations reported a p50 of 536 ms (2^29-1 ns), above max.
func TestHistogramQuantileWithinRange(t *testing.T) {
	var h Histogram
	for i := 0; i < 3; i++ {
		h.ObserveDuration(270 * time.Millisecond)
	}
	if got, want := h.Quantile(0.5), (270 * time.Millisecond).Nanoseconds(); got != want {
		t.Fatalf("p50 of three 270 ms observations = %d, want %d", got, want)
	}

	var g Histogram
	for _, v := range []int64{300, 310, 320, 330, 340, 350, 700, 5000, 5100} {
		g.Observe(v)
	}
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := g.Quantile(q)
		if v < 300 || v > 5100 {
			t.Fatalf("q=%.2f: %d outside [300, 5100]", q, v)
		}
		if v < prev {
			t.Fatalf("q=%.2f: %d below the previous quantile %d", q, v, prev)
		}
		prev = v
	}
	if g.Quantile(0) != 300 || g.Quantile(1) != 5100 {
		t.Fatalf("extremes %d/%d, want the recorded min/max 300/5100", g.Quantile(0), g.Quantile(1))
	}
	// The median (rank 4, the fifth of six values in bucket [256, 511])
	// interpolates inside the bucket's recorded part [300, 511]: 4.5/6 of
	// the way, not the bucket's upper bound.
	if p50 := g.Quantile(0.5); p50 != 458 { // 300 + 4.5/6 * 211
		t.Fatalf("p50 = %d, want 458", p50)
	}
}

func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(int64(i))
				r.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", r.Counter("c").Load())
	}
	if r.Histogram("h").Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", r.Histogram("h").Count())
	}
}

func TestTracerEmitsParseableJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	run := tr.Span("run", Fields{"structure": "IRF"})
	it := run.Child("iteration", Fields{"it": 0})
	it.Event("note", Fields{"x": 1.5})
	it.End(Fields{"best": 0.5})
	run.End(nil)
	tr.Event("standalone", nil)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	var evs []map[string]any
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q does not parse: %v", ln, err)
		}
		evs = append(evs, m)
	}
	if evs[0]["ev"] != "begin" || evs[0]["name"] != "run" {
		t.Fatalf("first record %v", evs[0])
	}
	// The iteration span must nest under the run span.
	if evs[1]["parent"] != evs[0]["id"] {
		t.Fatalf("iteration parent %v != run id %v", evs[1]["parent"], evs[0]["id"])
	}
	// begin/end ids of the iteration span must match.
	if evs[3]["id"] != evs[1]["id"] || evs[3]["ev"] != "end" {
		t.Fatalf("iteration end %v", evs[3])
	}
	if evs[3]["fields"].(map[string]any)["best"] != 0.5 {
		t.Fatalf("end fields %v", evs[3]["fields"])
	}
}

func TestPhaseTimersAndSummary(t *testing.T) {
	r := NewRegistry()
	o := New(r, nil)
	stopRun := o.Phase("core.run")
	stop := o.Phase("core.phase.evaluate")
	time.Sleep(2 * time.Millisecond)
	stop()
	stopRun()
	if r.Counter("core.phase.evaluate.wall_ns").Load() <= 0 {
		t.Fatal("phase timer recorded nothing")
	}
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	out := buf.String()
	if !strings.Contains(out, "core phases") || !strings.Contains(out, "evaluate") {
		t.Fatalf("summary missing phase table:\n%s", out)
	}
	if !strings.Contains(out, "% of wall clock accounted") {
		t.Fatalf("summary missing accounted line:\n%s", out)
	}
}

func TestStartPprof(t *testing.T) {
	addr, shutdown, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener must actually be released: a second server can bind
	// the same address, and requests to the old one fail.
	if _, err := http.Get("http://" + addr + "/debug/pprof/"); err == nil {
		t.Fatal("pprof server still serving after shutdown")
	}
	addr2, shutdown2, err := StartPprof(addr)
	if err != nil {
		t.Fatalf("rebind after shutdown: %v", err)
	}
	if addr2 != addr {
		t.Fatalf("rebound to %s, want %s", addr2, addr)
	}
	if err := shutdown2(); err != nil {
		t.Fatal(err)
	}
}
