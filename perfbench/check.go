package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"harpocrates/internal/inject"
	"harpocrates/internal/stats"
)

// pinned holds the result digest of every item of each workload for the
// default seed (1), as printed by --print-digests. The reference items
// (itemSeed) are the same under every seed, so every run checks those;
// every item of every seed is also checked for internal consistency and
// for repeats agreeing with the first execution of the same item.
var pinned = map[string]map[int]uint64{
	"evolve": {
		0: 0x704a162aa551b33a,
		1: 0x9926c5bfb6035d57,
		2: 0x89bd2d6d7196f79c,
		3: 0x0262e25b2750bbd4,
		4: 0x0e64c8c9ca060c51,
		5: 0x56324dc54021fae9,
		6: 0x3289a412523da85b,
		7: 0x9948ae2d2635e513,
	},
	"campaign": {
		0:  0x937854d4134c6ffa,
		1:  0x78c914fd84ad4994,
		2:  0x82d8fc4c51419dfa,
		3:  0xcba776f66e7ba02b,
		4:  0x1f94540e093af38e,
		5:  0x859f962c524b1480,
		6:  0x0e37a71c2e8f67eb,
		7:  0xb22adffcbab6bf81,
		8:  0x63fda726b0150f01,
		9:  0x3e2622e7eddbe688,
		10: 0x02039a78db909673,
		11: 0xfe426ebaf342a5b4,
		12: 0xb35ee1968bf43cb3,
		13: 0xa9948c0824c6dd4d,
		14: 0x16a8941f3368edff,
		15: 0x1bebc736bc582d22,
		16: 0x8e1b8f43d07822ff,
		17: 0xc23d4e701ff44fcd,
		18: 0x5a87ec890e5ba68a,
		19: 0x8b130740ee5aed97,
		20: 0xb20cc8358e7029ba,
		21: 0x73bf218c112f52b9,
		22: 0xdd61811c3b4c18e0,
		23: 0x15d994d735b394e8,
		24: 0x8fcf62fc8db81e00,
		25: 0x537fa01b2c8a02bd,
		26: 0x7a19b5266b140a2b,
		27: 0x0cc8b55909388cae,
		28: 0xf5ecbfa81e13cca5,
		29: 0xf48ee9dbb9f37846,
		30: 0x157cbe695729e5f1,
		31: 0x2d4dfa2ef0fef6c3,
		32: 0x88c58251a80ff852,
		33: 0xeff0f727097f944e,
		34: 0x67bf2a2b67458735,
		35: 0xaf92055594729a74,
		36: 0x2a09f3cfa1d33538,
		37: 0x57b4d94ae368f8e1,
		38: 0x2c6804fc13c46fc7,
		39: 0xdc6fa5160616c4b3,
		40: 0xd2178b688b67f7e3,
		41: 0xdbb8cb71230ef4a2,
		42: 0x5f6e5fb0444fbfca,
		43: 0xbdf6bacb4b5ee253,
		44: 0xb1f7d83d0fca02c1,
		45: 0xfba01781997cd4d6,
		46: 0xd895685a3470c2cf,
		47: 0x0466b09e0cace914,
	},
	"rank-queued": {
		0:  0xd269746a9496d461,
		1:  0x8c7d80beed909afc,
		2:  0xf810c27fa6f0f21d,
		3:  0x93b88f2a4e86094a,
		4:  0xd73338a5f0f23192,
		5:  0x53f38ffe552c7613,
		6:  0xeee382b6b483130a,
		7:  0x74df130c1501de02,
		8:  0x2780c6d974f2277f,
		9:  0xdce36edeb1d710f5,
		10: 0x66bc9f45704665b4,
		11: 0x9599071050e7ff25,
		12: 0x497e85cfae68cc72,
		13: 0xa495f462b45e630e,
		14: 0x7349c8aa6a8dcc58,
		15: 0x29cfb8cb4f9bedd9,
		16: 0x45a16568d9854393,
		17: 0xea02f720ef1d5491,
		18: 0xb32905a7433161c9,
		19: 0x5569b3217311fd4a,
		20: 0x79a1ad09ccc0b84f,
		21: 0x1fd9703cd0b1f70f,
		22: 0xcaf2e20b4950136f,
		23: 0x3d9427707a460167,
		24: 0xc38d9498c74f42c7,
		25: 0x686b1922e30d4873,
		26: 0x1964a7df56440062,
		27: 0x12e0a0aa6be8ce63,
		28: 0xb8043814546ad2f5,
		29: 0xac1cd3add477c003,
		30: 0x08aa1e55eddb0fee,
		31: 0xcad141b7a9d7715d,
		32: 0x753b26f58f39cab8,
		33: 0xae208fe5729dbc19,
		34: 0x4091d54f33e230d7,
		35: 0xb74b1110664484c0,
		36: 0xee1fccc843024f04,
		37: 0x5333cc30bf3f9128,
		38: 0x4f5c43cf62ae5615,
		39: 0x61396e02046d9b94,
	},
}

// checker compares a run's digests with the pinned ones.
type checker struct {
	pins       map[int]uint64
	checkAll   bool // seed 1: every pinned item, else the reference items
	refItems   int
	mismatches []string
}

func newChecker(workload string, seed uint64, refItems int) *checker {
	return &checker{pins: pinned[workload], checkAll: seed == 1, refItems: refItems}
}

func (c *checker) verify(got map[int]uint64) {
	for k := 0; k < c.refItems; k++ {
		if _, ok := got[k]; !ok {
			c.mismatches = append(c.mismatches, fmt.Sprintf("reference item %d did not complete", k))
		}
	}
	for _, k := range sortedKeys(got) {
		if k >= c.refItems && !c.checkAll {
			continue
		}
		if want, ok := c.pins[k]; ok && want != got[k] {
			c.mismatches = append(c.mismatches, fmt.Sprintf("item %d digest %#016x, pinned %#016x", k, got[k], want))
		}
	}
}

func (c *checker) goTable(got map[int]uint64) string {
	var b strings.Builder
	for _, k := range sortedKeys(got) {
		fmt.Fprintf(&b, "\t\t%d: %#016x,\n", k, got[k])
	}
	return b.String()
}

func sortedKeys(m map[int]uint64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// digestSet records one digest per item; a repeat of an item must
// reproduce the digest of its first execution.
type digestSet struct {
	mu sync.Mutex
	m  map[int]uint64
}

// record stores d for item, or reports the disagreement with the digest
// recorded first.
func (s *digestSet) record(item int, d uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[int]uint64)
	}
	if first, ok := s.m[item]; ok && first != d {
		return fmt.Errorf("item %d repeated with digest %#016x, first run gave %#016x", item, d, first)
	}
	s.m[item] = d
	return nil
}

func (s *digestSet) snapshot() map[int]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]uint64, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// statsDigest folds a campaign's statistics: every count, the golden
// cycle count and the per-injection outcome vector.
func statsDigest(st *inject.Stats) uint64 {
	h := stats.HashInit
	for _, v := range []int{st.N, st.Masked, st.SDC, st.Crash, st.Hang, st.Trap, st.Skipped} {
		h = stats.Mix64(h, uint64(v))
	}
	h = stats.Mix64(h, st.GoldenCycles)
	for _, o := range st.Outcomes {
		h = stats.Mix64(h, uint64(o))
	}
	return h
}

// checkStats verifies a campaign's statistics are self-consistent for
// n injections: the outcome vector has n entries, its classes match the
// counts, and no injection was skipped.
func checkStats(st *inject.Stats, n int) error {
	if st == nil {
		return fmt.Errorf("no statistics")
	}
	if st.N != n || len(st.Outcomes) != n {
		return fmt.Errorf("N=%d with %d outcomes, want %d", st.N, len(st.Outcomes), n)
	}
	var count [inject.Trap + 1]int
	for _, o := range st.Outcomes {
		if o < 0 || o > inject.Trap {
			return fmt.Errorf("outcome %d out of range", o)
		}
		count[o]++
	}
	if count[inject.Masked] != st.Masked || count[inject.SDC] != st.SDC || count[inject.Crash] != st.Crash ||
		count[inject.Hang] != st.Hang || count[inject.Trap] != st.Trap {
		return fmt.Errorf("outcome counts %v disagree with %s", count, st)
	}
	if st.Skipped != 0 || st.Masked+st.Detected() != n || st.GoldenCycles == 0 {
		return fmt.Errorf("skipped %d, masked+detected %d of %d, golden cycles %d",
			st.Skipped, st.Masked+st.Detected(), n, st.GoldenCycles)
	}
	return nil
}

func floatBits(h uint64, vs ...float64) uint64 {
	for _, v := range vs {
		h = stats.Mix64(h, math.Float64bits(v))
	}
	return h
}
