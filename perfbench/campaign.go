package main

import (
	"time"

	"harpocrates"
	"harpocrates/internal/corpus"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

// The campaign workload: one op is a cold SFI campaign (IRF transient
// faults) on a 25k-instruction random program, with its own empty golden
// cache, so every op pays the instrumented golden prologue. Ops cycle
// through campaignItems programs (itemSeed).
const (
	campaignItems  = 48
	campaignProbes = 16 // campaigns whose end probes the heap
	campaignInstrs = 25000
	campaignN      = 600
	campaignTail   = 75
	campaignMinOps = 40
)

type campaignItem struct {
	p    *prog.Program
	hash uint64
	seed uint64
}

type campaign struct {
	items []campaignItem
	reg   *obs.Registry
	done  digestSet
}

func (c *campaign) describe() workloadInfo {
	return workloadInfo{
		throughput: "campaign.injections_per_s",
		latency:    "campaign.latency",
		quality:    "campaign.detected",
		tailPct:    campaignTail,
		minOps:     campaignItems,
		minSamples: campaignMinOps,
		refItems:   1,
	}
}

// genProgram generates a random program of n instructions from seed
// (gen.NewRandom, then gen.Materialize).
func genProgram(n int, seed uint64) *prog.Program {
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = n
	return harpocrates.Generate(&cfg, seed)
}

func (c *campaign) setup(seed uint64, reg *obs.Registry) error {
	c.reg = reg
	c.items = c.items[:0]
	for k := 0; k < campaignItems; k++ {
		s := itemSeed(seed, k)
		p := genProgram(campaignInstrs, s)
		c.items = append(c.items, campaignItem{p: p, hash: corpus.HashProgram(p), seed: s})
	}
	// Warm the simulator, checkpoint and interval-recorder pools with a
	// small campaign whose golden cache is dropped afterwards.
	p := genProgram(2000, seed)
	camp := c.campaignFor(campaignItem{p: p, hash: corpus.HashProgram(p), seed: seed}, 32, nil)
	_, err := camp.Run()
	camp.GoldenCache.Purge()
	return err
}

func (c *campaign) campaignFor(it campaignItem, n int, ob *obs.Observer) *inject.Campaign {
	gc, _ := inject.NewGoldenCache(1, "") // memory-only: cannot fail
	return &inject.Campaign{
		Prog:        it.p.Insts,
		Init:        it.p.InitFunc(),
		Target:      coverage.IRF,
		Type:        inject.Transient,
		N:           n,
		Seed:        it.seed,
		Cfg:         uarch.DefaultConfig(),
		GoldenCache: gc,
		ProgramHash: it.hash,
		Obs:         ob,
	}
}

func (c *campaign) teardown() {}

func (c *campaign) digests() map[int]uint64 { return c.done.snapshot() }

func (c *campaign) measure(ph *phase) error {
	for i := 0; ph.more(i, len(ph.lat)); i++ {
		k := i % campaignItems
		var reg *obs.Registry
		var ob *obs.Observer
		if c.reg != nil {
			reg = obs.NewRegistry()
			ob = obs.New(reg, nil)
		}
		camp := c.campaignFor(c.items[k], campaignN, ob)
		sp := ph.tr.begin(ph.root, "inject.Campaign.Run", "inject")
		t0 := time.Now()
		st, err := camp.Run()
		lat := time.Since(t0).Seconds()
		sp.end()
		if i < campaignProbes {
			ph.probeHeap() // the golden bundle is still cached
		}
		camp.GoldenCache.Purge()
		ph.ops++
		if err == nil {
			err = checkStats(st, campaignN)
		}
		if err == nil {
			err = c.done.record(k, statsDigest(st))
		}
		if err != nil {
			ph.fail("campaign %d: %v", i, err)
		} else {
			ph.lat = append(ph.lat, lat)
			ph.work += campaignN
			if k == 0 {
				ph.quality = float64(st.Detected())
			}
		}
		if reg != nil {
			g, cl, sim, _ := ph.addCampaign(reg, false)
			sp.derive(campaignParts(g, cl, sim, false))
		}
	}
	return nil
}
