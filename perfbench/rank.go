package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"harpocrates/internal/coverage"
	"harpocrates/internal/dist"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/queue"
	"harpocrates/internal/stats"
	"harpocrates/internal/uarch"
)

// The rank-queued workload: an in-process queue.Coordinator on a fresh
// data dir ranks small programs against the paper's six structures,
// each with its default fault model. rankClients closed-loop clients
// each submit one campaign job and wait for it before taking the next
// job of a fixed list, program-major. One executor runs the shards:
// lease, dist.RunInjectCached, complete — the loop the coordinator's own
// local executors run, driven here so each shard can be timed and
// attributed. Each program has its own golden cache, made
// when its first shard runs and dropped when its last job is done: the
// golden is computed once per golden class and reused by the program's
// other jobs and shards, and memory does not grow with run length.
const (
	rankPrograms = 60
	rankInstrs   = 2000
	rankClients  = 2
	// rankExecutors is the number of executors. A campaign already runs
	// its injections on GOMAXPROCS workers, so one executor keeps every
	// core busy; more would only oversubscribe the cores. On a 2-vCPU
	// host two executors gave the same median throughput as one, with
	// 1.6x its run-to-run spread.
	rankExecutors = 1
	rankTail      = 75
	rankMinOps    = 40
	// rankGoldenEntries sizes a program's golden cache so its three
	// golden classes (plain, FP adder, FP multiplier netlists) can never
	// evict each other: NewGoldenCache splits capacity over 16 shards.
	rankGoldenEntries = 3 * 16
	// rankShardSize is the coordinator's shard size: larger than any
	// job's injection count, so every job is one shard. Every submit and
	// shard completion appends a WAL record and fsyncs it under the
	// coordinator lock; with the default size (32, about ten records per
	// job) the disk's fsync latency on a shared host, not the program,
	// would set the spread of the job figures. One shard per job also
	// keeps a job's cost independent of how its injections would have
	// been split into shards.
	rankShardSize = 8192
)

// rankStructures are the paper's six structures with each one's
// injection count, sized so a job costs about the same on every
// structure, 0.2-0.25 s on a 2-vCPU host (functional-unit permanents
// simulate every fault to the end, bit-array transients are mostly
// pre-masked; the IRF job, each program's first, also computes the
// golden). Equal job costs keep the latency distribution one mode, so
// its median is steady.
var rankStructures = []struct {
	st coverage.Structure
	n  int
}{
	{coverage.IRF, 4096}, {coverage.L1D, 580}, {coverage.IntAdder, 86},
	{coverage.IntMul, 47}, {coverage.FPAdd, 90}, {coverage.FPMul, 83},
}

type rankJob struct {
	req     *dist.JobRequest
	target  coverage.Structure
	program int
}

type rank struct {
	base  string
	dir   string
	reg   *obs.Registry
	jobs  []rankJob
	coord *queue.Coordinator
	done  digestSet

	encodeS float64 // request encoding per job, from the last setup

	mu       sync.Mutex
	detected map[int]int
	progOf   map[uint64]int // program bytes hash -> program index
	goldens  map[int]*inject.GoldenCache
	left     map[int]int // jobs of each program not yet done
}

func (r *rank) describe() workloadInfo {
	return workloadInfo{
		throughput: "rank.jobs_per_s",
		latency:    "rank.job_latency",
		quality:    "rank.detected",
		tailPct:    rankTail,
		minOps:     rankMinOps,
		minSamples: rankMinOps,
		refItems:   len(rankStructures),
	}
}

func (r *rank) setup(seed uint64, reg *obs.Registry) error {
	r.reg = reg
	r.jobs = r.jobs[:0]
	r.detected = make(map[int]int)
	r.progOf = make(map[uint64]int)
	r.goldens = make(map[int]*inject.GoldenCache)
	r.left = make(map[int]int)
	var encode time.Duration
	for k := 0; k < rankPrograms; k++ {
		s := itemSeed(seed, k)
		p := genProgram(rankInstrs, s)
		for _, rs := range rankStructures {
			camp := &inject.Campaign{
				Target: rs.st,
				Type:   inject.DefaultFaultType(rs.st),
				N:      rs.n,
				Seed:   s,
				Cfg:    uarch.DefaultConfig(),
			}
			t0 := time.Now()
			req, err := dist.NewInjectRequest(camp, p)
			encode += time.Since(t0)
			if err != nil {
				return err
			}
			r.progOf[stats.HashBytes(req.Program)] = k
			r.jobs = append(r.jobs, rankJob{req: &dist.JobRequest{Kind: dist.JobCampaign, Inject: &req}, target: rs.st, program: k})
		}
		r.left[k] = len(rankStructures)
	}
	r.encodeS = encode.Seconds() / float64(len(r.jobs))

	// Warm the gate-level netlists and simulator pools on one small
	// shard per structure, with a golden cache that is then dropped.
	warm, _ := inject.NewGoldenCache(rankGoldenEntries, "") // memory-only: cannot fail
	for _, j := range r.jobs[:len(rankStructures)] {
		req := *j.req.Inject
		req.Hi = 8
		if _, err := dist.RunInjectCached(&req, nil, warm); err != nil {
			return fmt.Errorf("warm-up %v: %w", j.target, err)
		}
	}
	warm.Purge()

	r.dir = filepath.Join(r.base, fmt.Sprintf("rank-data-%d-%d", os.Getpid(), time.Now().UnixNano()))
	var ob *obs.Observer
	if reg != nil {
		ob = obs.New(reg, nil)
	}
	coord, err := queue.NewCoordinator(queue.Options{DataDir: r.dir, Obs: ob, ShardSize: rankShardSize})
	if err != nil {
		return err
	}
	r.coord = coord
	return nil
}

func (r *rank) teardown() {
	if r.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := r.coord.Close(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "close coordinator:", err)
		}
		cancel()
		r.coord = nil
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
		r.dir = ""
	}
	for _, gc := range r.goldens {
		gc.Purge()
	}
	r.goldens = nil
}

// goldenFor returns the golden cache of the program a shard belongs to.
func (r *rank) goldenFor(req *dist.InjectRequest) (*inject.GoldenCache, error) {
	k, ok := r.progOf[stats.HashBytes(req.Program)]
	if !ok {
		return nil, fmt.Errorf("shard of an unknown program")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	gc := r.goldens[k]
	if gc == nil {
		gc, _ = inject.NewGoldenCache(rankGoldenEntries, "") // memory-only: cannot fail
		r.goldens[k] = gc
	}
	return gc, nil
}

// jobDone records job j's detected count (failed jobs have none) and
// drops its program's golden cache once the program has no job left.
func (r *rank) jobDone(j int, detected *int) {
	k := r.jobs[j].program
	r.mu.Lock()
	defer r.mu.Unlock()
	if detected != nil {
		r.detected[j] = *detected
	}
	if r.left[k]--; r.left[k] == 0 && r.goldens[k] != nil {
		r.goldens[k].Purge()
		delete(r.goldens, k)
	}
}

func (r *rank) digests() map[int]uint64 { return r.done.snapshot() }

func (r *rank) measure(ph *phase) error {
	defer ph.watchHeap()()
	if r.reg != nil {
		ph.add("dist.request_encode_s", r.encodeS)
	}
	stop := make(chan struct{})
	var execs sync.WaitGroup
	ph.add("queue.executors", rankExecutors)
	var shardMu sync.Mutex // guards ph.layer for executors and clients
	for e := 0; e < rankExecutors; e++ {
		execs.Add(1)
		go func(name string) {
			defer execs.Done()
			r.executor(ph, name, stop, &shardMu)
		}(fmt.Sprintf("bench-%d", e))
	}

	next := 0 // the next job to submit; guarded by latMu
	var clients sync.WaitGroup
	var latMu sync.Mutex
	for cl := 0; cl < rankClients; cl++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				latMu.Lock()
				j := next
				if j >= len(r.jobs) || !ph.more(j, len(ph.lat)) {
					latMu.Unlock()
					return
				}
				next++
				latMu.Unlock()
				lat, err := r.runJob(ph, j, &shardMu)
				latMu.Lock()
				ph.ops++
				if err != nil {
					ph.fail("job %d (%v): %v", j, r.jobs[j].target, err)
				} else {
					ph.lat = append(ph.lat, lat)
					ph.work++
				}
				latMu.Unlock()
			}
		}()
	}
	clients.Wait()
	if r.reg != nil {
		if fi, err := os.Stat(filepath.Join(r.dir, "wal.log")); err == nil {
			ph.add("queue.wal_bytes", float64(fi.Size()))
		}
	}
	close(stop)
	execs.Wait()

	// Quality is the reference program's (jobs of program 0) detections.
	for j, d := range r.detected {
		if r.jobs[j].program == 0 {
			ph.quality += float64(d)
		}
	}
	return nil
}

// runJob submits job j, waits for it and checks the merged result.
func (r *rank) runJob(ph *phase, j int, mu *sync.Mutex) (float64, error) {
	job := r.jobs[j]
	sp := ph.tr.begin(ph.root, "rank.job", "bench")
	defer sp.end()
	t0 := time.Now()
	sub := ph.tr.begin(sp, "queue.Coordinator.Submit", "queue")
	resp, err := r.coord.Submit(job.req)
	sub.end()
	submit := time.Since(t0)
	if err != nil {
		return 0, err
	}
	sp.setRef(resp.ID)
	wait := ph.tr.wait(sp, "queue.Coordinator.Wait", "queue")
	res, err := r.coord.Wait(resp.ID)
	wait.end()
	lat := time.Since(t0).Seconds()
	if err != nil {
		r.jobDone(j, nil)
		return 0, err
	}
	if r.reg != nil {
		mu.Lock()
		ph.add("queue.submit_s", submit.Seconds())
		mu.Unlock()
	}
	if res.State != dist.JobStateDone {
		err = fmt.Errorf("job %s ended %s", resp.ID, res.State)
	}
	if err == nil {
		err = checkStats(res.Stats, job.req.Inject.N)
	}
	if err == nil {
		err = r.done.record(j, statsDigest(res.Stats))
	}
	if err != nil {
		r.jobDone(j, nil)
		return 0, err
	}
	detected := res.Stats.Detected()
	r.jobDone(j, &detected)
	return lat, nil
}

// executor leases shards until stop closes. Every lease goes through
// the coordinator's lease/complete path, its WAL and its result cache.
func (r *rank) executor(ph *phase, name string, stop <-chan struct{}, mu *sync.Mutex) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		lease, err := r.coord.Lease(name, 50*time.Millisecond)
		if err != nil || lease.JobID == "" {
			continue
		}
		var reg *obs.Registry
		var ob *obs.Observer
		if r.reg != nil {
			reg = obs.NewRegistry()
			ob = obs.New(reg, nil)
		}
		target, _ := coverage.Parse(lease.Inject.Target)
		fu := target.IsFunctionalUnit()
		t0 := time.Now()
		sp := ph.tr.begin(nil, "dist.RunInjectCached", "dist")
		sp.setRef(lease.JobID)
		comp := &dist.CompleteRequest{Worker: name, JobID: lease.JobID, Shard: lease.Shard, Lease: lease.Lease}
		gc, err := r.goldenFor(lease.Inject)
		var st *inject.Stats
		if err == nil {
			st, err = dist.RunInjectCached(lease.Inject, ob, gc)
		}
		sp.end()
		exec := time.Since(t0)
		if err != nil {
			comp.Err = err.Error()
		} else {
			comp.Stats = st
		}
		csp := ph.tr.begin(nil, "queue.Coordinator.Complete", "queue")
		csp.setRef(lease.JobID)
		_, cerr := r.coord.Complete(comp)
		if comp.Err != "" {
			// The coordinator re-queues a failed shard forever; a shard
			// that fails here would fail again, so end its job instead.
			fmt.Fprintln(os.Stderr, "shard failed:", comp.Err)
			cerr = errors.Join(cerr, r.coord.Cancel(lease.JobID))
		}
		csp.end()
		busy := time.Since(t0)
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "complete:", cerr)
		}
		if reg != nil {
			mu.Lock()
			ph.add("queue.busy_s", busy.Seconds())
			ph.add("queue.shard_exec_s", exec.Seconds())
			ph.add("queue.shards", 1)
			g, cl, sim, run := ph.addCampaign(reg, fu)
			mu.Unlock()
			sp.derive([]part{{name: "inject.Campaign.RunRange", layer: "inject", dur: run,
				parts: campaignParts(g, cl, sim, fu)}})
		}
	}
}
