// Command perfbench is the repository benchmark. It runs one workload
// of the Harpocrates loop through the packages' public APIs, checks the
// results, and prints its metrics; the last line of standard output is
// one JSON object {correct, attempted, failed, metrics}.
//
//	bash perfbench/run.sh --workload evolve --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics (BENCHMARK.json end_to_end);
// --trace 1 replays the same ops with an obs.Observer attached and the
// benchmark's own spans recorded, and reports the per-layer metrics
// (BENCHMARK.json per_layer). perfbench/README.md defines every metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"harpocrates/internal/obs"
	"harpocrates/internal/stats"
)

// Set-up runs at least minSetups times and until setupBudget of set-up
// time has accumulated (a cheap set-up is timed many times, so its
// median is steady); setup_s is the median, and the last set-up's state
// is the one measured.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
)

// hardCap ends a measurement that is still short of its minimum sample
// count, so a slow host still answers well within the time limit.
const hardCap = 75 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	wname := flag.String("workload", "", "evolve, campaign or rank-queued")
	seed := flag.Uint64("seed", 1, "input seed (digests are pinned for seed 1)")
	seconds := flag.Float64("seconds", 10, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	printDigests := flag.Bool("print-digests", false, "print the result digests as a Go table (for pinning)")
	flag.Parse()

	newW, ok := workloads[*wname]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload evolve|campaign|rank-queued --seed N --seconds S --trace 0|1\n")
		return 2
	}
	dir := os.Getenv("PERFBENCH_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir, err := filepath.Abs(dir)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	host := fingerprint()
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	hj, _ := json.Marshal(host)
	fmt.Fprintf(out, "host %s\n", hj)

	w := newW(dir)
	ck := newChecker(*wname, *seed, w.describe().refItems)
	var metricsOut map[string]metric
	var attempted, failed int
	if *trace == 0 {
		metricsOut, attempted, failed, err = untracedRun(w, *seed, *seconds, out)
	} else {
		metricsOut, attempted, failed, err = tracedRun(w, *wname, *seed, *seconds, dir, host, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ck.verify(w.digests())
	for _, m := range ck.mismatches {
		fmt.Fprintln(out, "MISMATCH", m)
	}
	if *printDigests {
		fmt.Fprint(out, ck.goTable(w.digests()))
	}
	correct := len(ck.mismatches) == 0 && failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metricsOut})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one benchmark workload. setup builds fresh inputs and
// cold state (a later setup discards the earlier one's state); measure
// runs ops until the control says stop.
type workload interface {
	setup(seed uint64, reg *obs.Registry) error
	measure(ph *phase) error
	teardown()
	// digests returns the deterministic result digest of every item the
	// run executed, by item index, after checking each repeat of an item
	// against its first execution.
	digests() map[int]uint64
	// describe names the end-to-end numbers for the report: the work
	// unit and the per-workload metric names.
	describe() workloadInfo
}

type workloadInfo struct {
	throughput, latency, quality string // report names
	tailPct                      float64
	// minOps and minSamples extend a run until every item has run and
	// the tail percentile has at least ten samples beyond it.
	minOps, minSamples int
	// refItems is how many leading items are reference inputs (itemSeed).
	refItems int
}

// itemSeed derives the input seed of item k. Item 0 is the reference
// input: the same for every run seed, so every run checks a pinned
// digest and reports a quality figure that does not vary with the seed.
// (rank-queued's reference is its first program, i.e. its first six jobs.)
func itemSeed(seed uint64, k int) uint64 {
	if k == 0 {
		seed = 1
	}
	return stats.Mix64(stats.Mix64(stats.HashInit, seed), uint64(k))
}

var workloads = map[string]func(dir string) workload{
	"evolve":      func(string) workload { return &evolve{} },
	"campaign":    func(string) workload { return &campaign{} },
	"rank-queued": func(dir string) workload { return &rank{base: dir} },
}

// phase is one measured stretch of ops and everything it recorded.
type phase struct {
	seconds  float64
	deadline time.Time
	hardStop time.Time
	minOps   int
	maxOps   int // > 0: run exactly this many ops (the traced replay)
	minLat   int

	tr   *tracer // nil when untraced
	root *span

	start    time.Time
	paused   time.Duration // heap probes, excluded from wall
	wall     time.Duration
	ops      int
	failed   int
	work     float64   // throughput units completed
	lat      []float64 // latency samples, seconds
	quality  float64
	peakHeap uint64
	steal    float64            // share of CPU time the hypervisor took
	layer    map[string]float64 // per-layer raw figures (traced only)
	errs     []string
}

// more reports whether another op should start after done ops, with
// nLat latency samples so far.
func (ph *phase) more(done, nLat int) bool {
	if ph.maxOps > 0 {
		return done < ph.maxOps
	}
	if time.Now().After(ph.hardStop) {
		return false
	}
	return done < ph.minOps || nLat < ph.minLat || time.Now().Before(ph.deadline.Add(ph.paused))
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, fmt.Sprintf(format, args...))
	}
}

// probeHeap forces two GCs and records the live heap the second one
// marked (the first moves released sync.Pool scratch to the victim
// cache, the second frees it). The campaign workload calls it at op
// boundaries while the op's golden bundle is still referenced; the phase
// clock is paused around it. The traced phase reports no heap figure
// and skips the probes, so they do not distort its span timings.
func (ph *phase) probeHeap() {
	if ph.tr != nil {
		return
	}
	t0 := time.Now()
	runtime.GC()
	runtime.GC()
	ph.peakHeap = max(ph.peakHeap, liveHeap())
	ph.paused += time.Since(t0)
}

// heapWatch records the largest live heap any GC cycle marks while it
// runs: a sentinel object's finalizer runs after every cycle, reads the
// cycle's live heap and re-arms itself with a fresh sentinel.
type heapWatch struct {
	peak atomic.Uint64
	stop atomic.Bool
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(new([64]byte), func(*[64]byte) {
		for v := liveHeap(); ; {
			old := w.peak.Load()
			if v <= old || w.peak.CompareAndSwap(old, v) {
				break
			}
		}
		if !w.stop.Load() {
			w.arm()
		}
	})
}

// watchHeap records in ph.peakHeap, until the returned stop is called,
// the largest live heap any GC cycle marks: for workloads whose working
// set lives inside an op (evolve's in-flight simulations) or whose ops
// overlap (rank-queued), where no op boundary holds the peak.
func (ph *phase) watchHeap() (stop func()) {
	w := &heapWatch{}
	w.arm()
	return func() {
		w.stop.Store(true)
		ph.peakHeap = max(ph.peakHeap, w.peak.Load(), liveHeap())
	}
}

// liveHeap is the live heap marked by the most recent GC cycle.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (ph *phase) add(key string, v float64) { ph.layer[key] += v }

func newPhase(seconds float64, info workloadInfo) *phase {
	return &phase{
		seconds: seconds,
		minOps:  info.minOps,
		minLat:  info.minSamples,
		layer:   make(map[string]float64),
	}
}

// runPhase measures one phase: from a fresh setup, every op timed.
func runPhase(w workload, ph *phase) error {
	runtime.GC()
	steal0 := cpuSteal()
	ph.start = time.Now()
	ph.deadline = ph.start.Add(time.Duration(ph.seconds * float64(time.Second)))
	ph.hardStop = ph.start.Add(hardCap)
	ph.root = ph.tr.wait(nil, "perfbench.measure", "bench")
	err := w.measure(ph)
	ph.root.end()
	ph.wall = time.Since(ph.start) - ph.paused
	ph.steal = cpuSteal().since(steal0)
	for _, e := range ph.errs {
		fmt.Fprintln(os.Stderr, "op failed:", e)
	}
	return err
}

func untracedRun(w workload, seed uint64, seconds float64, out *bufio.Writer) (map[string]metric, int, int, error) {
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if len(setups) > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(seed, nil); err != nil {
			return nil, 0, 0, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	info := w.describe()
	ph := newPhase(seconds, info)
	err := runPhase(w, ph)
	w.teardown()
	if err != nil {
		return nil, 0, 0, err
	}
	if ph.ops == 0 {
		return nil, 0, 0, fmt.Errorf("no op completed")
	}
	lat := append([]float64(nil), ph.lat...)
	sort.Float64s(lat)
	okRatio := float64(ph.ops-ph.failed) / float64(ph.ops)
	m := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"ok_ratio":         {okRatio, "ratio"},
		"peak_heap_mb":     {float64(ph.peakHeap) / (1 << 20), "MB"},
		"throughput_per_s": {ph.work / ph.wall.Seconds(), "1/s"},
		"latency_p50_s":    {quantile(lat, 0.5), "s"},
		"latency_tail_s":   {quantile(lat, info.tailPct/100), "s"},
		"quality":          {ph.quality, "score"},
	}
	n := len(lat)
	fmt.Fprintf(out, "ops %d failed %d wall %.3fs latency samples %d\n", ph.ops, ph.failed, ph.wall.Seconds(), n)
	fmt.Fprintf(out, "steal %.4f of CPU time during the measurement\n", ph.steal)
	report := []struct {
		name string
		m    metric
		n    int
	}{
		{"setup_s", m["setup_s"], len(setups)},
		{"failed_ratio", metric{1 - okRatio, "ratio"}, ph.ops},
		{"peak_heap_mb", m["peak_heap_mb"], ph.ops},
		{info.throughput, m["throughput_per_s"], ph.ops},
		{info.latency + "_p50_s", m["latency_p50_s"], n},
		{fmt.Sprintf("%s_tail_s (p%g)", info.latency, info.tailPct), m["latency_tail_s"], n},
		{info.quality, m["quality"], ph.ops},
	}
	for _, r := range report {
		fmt.Fprintf(out, "metric %-38s %12.6g %-6s n=%d\n", r.name, r.m.Value, r.m.Unit, r.n)
	}
	return m, ph.ops, ph.failed, nil
}

// tracedRun measures the workload twice from cold state: untraced for
// half the time, then traced over exactly the same ops, and reports the
// per-layer metrics of the traced half.
func tracedRun(w workload, wname string, seed uint64, seconds float64, dir string, host hostInfo, out *bufio.Writer) (map[string]metric, int, int, error) {
	info := w.describe()
	if err := w.setup(seed, nil); err != nil {
		return nil, 0, 0, fmt.Errorf("setup: %w", err)
	}
	plain := newPhase(seconds/2, info)
	plain.minLat = 0 // the per-layer figures use no latency samples
	err := runPhase(w, plain)
	w.teardown()
	if err != nil {
		return nil, 0, 0, err
	}

	reg := obs.NewRegistry()
	runID := fmt.Sprintf("%s-seed%d-%d", wname, seed, time.Now().UnixNano())
	tr := newTracer(runID)
	if err := w.setup(seed, reg); err != nil {
		return nil, 0, 0, fmt.Errorf("setup: %w", err)
	}
	traced := newPhase(seconds/2, info)
	traced.maxOps, traced.tr = plain.ops, tr
	err = runPhase(w, traced)
	w.teardown()
	if err != nil {
		return nil, 0, 0, err
	}

	tdir := filepath.Join(dir, "traces")
	path := filepath.Join(tdir, runID+".jsonl")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	if err := tr.writeJSONL(path, host); err != nil {
		return nil, 0, 0, err
	}

	att := tr.attribute(traced.root)
	m := layerMetrics(traced, reg)
	m["obs.trace_overhead_ratio"] = metric{traced.wall.Seconds() / plain.wall.Seconds(), "ratio"}
	m["calib.ns_per_op"] = metric{host.CalibNSPerOp, "ns"}
	for _, l := range layers {
		m["self."+l+"_s"] = metric{att.layers[l], "s"}
	}
	m["trace.unattributed_s"] = metric{att.unassigned, "s"}
	m["trace.wall_s"] = metric{att.wall, "s"}

	fmt.Fprintf(out, "trace %s (%d ops untraced in %.3fs, traced in %.3fs)\n", path, plain.ops, plain.wall.Seconds(), traced.wall.Seconds())
	sum := att.unassigned
	for _, l := range layers {
		sum += att.layers[l]
	}
	fmt.Fprintf(out, "self times + unattributed = %.6fs, traced wall = %.6fs\n", sum, att.wall)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "layer %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, plain.ops + traced.ops, plain.failed + traced.failed, nil
}

// layers are the repository packages the self-time breakdown charges,
// plus "bench" for the benchmark's own bookkeeping between calls.
var layers = []string{"bench", "gen", "mutate", "prog", "core", "uarch", "gates", "inject", "dist", "queue"}

// layerMetrics turns the traced phase's raw figures into the per-layer
// metrics. Every metric is always present; one a workload does not
// exercise reads 0.
func layerMetrics(ph *phase, reg *obs.Registry) map[string]metric {
	ops := float64(max(ph.ops, 1))
	L := ph.layer
	c := func(name string) float64 { return float64(reg.Counter(name).Load()) }
	ns := func(name string) float64 { return c(name) / 1e9 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{
		// evolve: History.Times, phase timers and core.sim counters, per round.
		"gen.materialize_s":           {L["hist.generation_s"] / ops, "s"},
		"prog.encode_s":               {L["hist.compilation_s"] / ops, "s"},
		"mutate.s":                    {L["hist.mutation_s"] / ops, "s"},
		"uarch.grade_sim_s":           {L["hist.evaluation_s"] / ops, "s"},
		"core.evaluate_s":             {ns("core.phase.evaluate.wall_ns") / ops, "s"},
		"core.select_mutate_s":        {(ns("core.phase.select.wall_ns") + ns("core.phase.mutate.wall_ns")) / ops, "s"},
		"core.memo_hit_ratio":         {ratio(L["hist.cache_hits"], L["hist.programs"]), "ratio"},
		"uarch.sim_cycles":            {c("core.sim.cycles") / ops, "count"},
		"uarch.sim_instructions":      {c("core.sim.instructions") / ops, "count"},
		"uarch.ipc":                   {ratio(c("core.sim.instructions"), c("core.sim.cycles")), "ratio"},
		"uarch.host_ns_per_sim_cycle": {ratio(L["hist.evaluation_s"]*1e9, c("core.sim.cycles")), "ns"},

		// campaign and rank-queued: inject counters and phase timers, per op.
		"inject.golden_s":                {L["inject.golden_s"] / ops, "s"},
		"inject.premask_ratio":           {ratio(L["inject.premasked"], L["inject.injections"]), "ratio"},
		"inject.checkpoint_resume_ratio": {ratio(L["inject.resume.checkpoint"], L["inject.resume.checkpoint"]+L["inject.resume.reset"]), "ratio"},
		"inject.delta_converged_ratio":   {ratio(L["inject.delta.converged"], L["inject.delta.converged"]+L["inject.delta.diverged"]), "ratio"},
		"inject.delta_cycles_saved":      {L["inject.delta.cycles_saved"] / ops, "count"},
		"inject.golden_bytes":            {L["inject.golden_bytes"], "B"},
		"inject.simulate_s":              {L["inject.simulate_s"] / ops, "s"},
		"inject.simulate_fu_s":           {L["inject.simulate_fu_s"] / ops, "s"},
		"inject.classify_s":              {L["inject.classify_s"] / ops, "s"},
		"inject.simulated":               {L["inject.simulated"] / ops, "count"},
		"inject.golden_cache_hit_ratio":  {ratio(L["inject.golden.hits"], L["inject.golden.hits"]+L["inject.golden.misses"]), "ratio"},

		// rank-queued: the queue and the wire layer, per job.
		"dist.request_encode_s":        {L["dist.request_encode_s"], "s"},
		"queue.submit_s":               {L["queue.submit_s"] / ops, "s"},
		"queue.executor_busy_ratio":    {ratio(L["queue.busy_s"], L["queue.executors"]*ph.wall.Seconds()), "ratio"},
		"queue.shard_exec_s":           {ratio(L["queue.shard_exec_s"], L["queue.shards"]), "s"},
		"queue.wal_bytes":              {L["queue.wal_bytes"] / ops, "B"},
		"queue.result_cache_hit_ratio": {ratio(c("queue.cache.hits"), c("queue.cache.hits")+c("queue.cache.misses")), "ratio"},
		"queue.lease_expirations":      {c("queue.lease.expirations"), "count"},
		"queue.complete_stale":         {c("queue.complete.stale"), "count"},
	}
	return m
}

// addCampaign folds the counters one campaign (or shard) left in its
// own registry into the phase totals; fu marks a functional-unit target.
func (ph *phase) addCampaign(reg *obs.Registry, fu bool) (golden, classify, simulate, run time.Duration) {
	c := func(name string) float64 { return float64(reg.Counter(name).Load()) }
	golden = time.Duration(c("inject.phase.golden.wall_ns"))
	classify = time.Duration(c("inject.phase.classify.wall_ns"))
	simulate = time.Duration(c("inject.phase.simulate.wall_ns"))
	run = time.Duration(c("inject.run.wall_ns"))
	ph.add("inject.golden_s", golden.Seconds())
	ph.add("inject.classify_s", classify.Seconds())
	if fu {
		ph.add("inject.simulate_fu_s", simulate.Seconds())
	} else {
		ph.add("inject.simulate_s", simulate.Seconds())
	}
	ph.add("inject.premasked", c("inject.premasked"))
	ph.add("inject.injections", c("inject.premasked")+c("inject.simulated"))
	ph.add("inject.simulated", c("inject.simulated"))
	for _, k := range []string{"inject.resume.checkpoint", "inject.resume.reset",
		"inject.delta.converged", "inject.delta.diverged", "inject.delta.cycles_saved"} {
		ph.add(k, c(k))
	}
	ph.add("inject.golden.hits", c("inject.golden.cache.hits"))
	ph.add("inject.golden.misses", c("inject.golden.cache.misses"))
	ph.layer["inject.golden_bytes"] = max(ph.layer["inject.golden_bytes"], reg.Gauge("inject.golden.cache.bytes").Load())
	return golden, classify, simulate, run
}

// campaignParts lays one campaign's phases out under its span: the
// golden prologue and faulty simulations are core-model time (gate-level
// hooks for functional-unit targets), classification is inject's own.
func campaignParts(golden, classify, simulate time.Duration, fu bool) []part {
	simLayer := "uarch"
	if fu {
		simLayer = "gates"
	}
	return []part{
		{name: "inject.golden", layer: "uarch", dur: golden},
		{name: "inject.classify", layer: "inject", dur: classify},
		{name: "inject.simulate", layer: simLayer, dur: simulate},
	}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// hostInfo is the fingerprint printed with every run, so absolute
// figures can be compared across hosts through CalibNSPerOp.
type hostInfo struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	GoVersion    string  `json:"go_version"`
	CPUModel     string  `json:"cpu_model"`
	CalibNSPerOp float64 `json:"calib_ns_per_op"`
}

func fingerprint() hostInfo {
	return hostInfo{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		CalibNSPerOp: calibrate(),
	}
}

// cpuTimes is the all-CPU line of /proc/stat: total ticks and steal
// ticks (time a hypervisor ran something else on this guest's CPUs).
type cpuTimes struct{ total, steal uint64 }

func cpuSteal() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since returns the steal share of the CPU time between t0 and t.
func (t cpuTimes) since(t0 cpuTimes) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var calibSink uint64

// calibrate times a fixed dependent ALU loop (xorshift-multiply) and
// returns the median ns per iteration of five repetitions.
func calibrate() float64 {
	const n = 1 << 23
	x := uint64(0x9E3779B97F4A7C15)
	var reps []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0xff51afd7ed558ccd
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/n)
	}
	calibSink = x
	return median(reps)
}
