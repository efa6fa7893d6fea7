package gpusim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// contains probes without touching LRU state.
func (c *cache) contains(addr uint64) bool {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lru[base+w] != 0 && c.tags[base+w] == line {
			return true
		}
	}
	return false
}

func TestCacheHitAfterFill(t *testing.T) {
	c := newCache(CacheConfig{Sets: 4, Ways: 2, LineBytes: 64})
	addr := uint64(0x1000)
	if c.access(addr) {
		t.Fatal("empty cache must miss")
	}
	if !c.access(addr) {
		t.Fatal("line filled by the miss must hit")
	}
}

func TestCacheSameLineDifferentOffsets(t *testing.T) {
	c := newCache(CacheConfig{Sets: 4, Ways: 2, LineBytes: 64})
	c.access(0x1000)
	for off := uint64(0); off < 64; off += 8 {
		if !c.access(0x1000 + off) {
			t.Fatalf("offset %d within the filled line missed", off)
		}
	}
	if c.access(0x1040) {
		t.Fatal("next line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 set, 2 ways: the set holds exactly two lines.
	c := newCache(CacheConfig{Sets: 1, Ways: 2, LineBytes: 64})
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.access(a)
	c.access(b)
	if !c.access(a) { // a is now most recent
		t.Fatal("line a missed before any eviction")
	}
	if c.access(d) { // must evict b (LRU)
		t.Fatal("line d hit before it was filled")
	}
	if !c.contains(a) {
		t.Fatal("recently used line a was evicted")
	}
	if c.contains(b) {
		t.Fatal("LRU line b survived eviction")
	}
	if !c.contains(d) {
		t.Fatal("newly filled line d missing")
	}
}

func TestCacheSetIndexing(t *testing.T) {
	c := newCache(CacheConfig{Sets: 4, Ways: 1, LineBytes: 64})
	// Lines 0,1,2,3 map to different sets: all four fit despite 1 way.
	for i := uint64(0); i < 4; i++ {
		c.access(i * 64)
	}
	for i := uint64(0); i < 4; i++ {
		if !c.contains(i * 64) {
			t.Fatalf("line %d missing; set indexing broken", i)
		}
	}
	// Line 4 aliases set 0 and evicts line 0.
	c.access(4 * 64)
	if c.contains(0) {
		t.Fatal("aliased line not evicted from 1-way set")
	}
}

func TestCacheCloneIndependence(t *testing.T) {
	c := newCache(CacheConfig{Sets: 4, Ways: 2, LineBytes: 64})
	c.access(0x80)
	cp := c.clone()
	cp.access(0x10000)
	if c.contains(0x10000) {
		t.Fatal("clone mutation leaked into original")
	}
	if !cp.contains(0x80) {
		t.Fatal("clone lost original contents")
	}
}

// TestCacheNeverExceedsCapacity checks the structural invariant that a
// set never holds more valid lines than it has ways, under random
// accesses.
func TestCacheNeverExceedsCapacity(t *testing.T) {
	cfg := CacheConfig{Sets: 8, Ways: 2, LineBytes: 64}
	f := func(addrs []uint32) bool {
		c := newCache(cfg)
		for _, a := range addrs {
			c.access(uint64(a))
		}
		// Count valid (stamped) lines per set.
		counts := make(map[int]int)
		for i, stamp := range c.lru {
			if stamp != 0 {
				counts[i/cfg.Ways]++
			}
		}
		for _, n := range counts {
			if n > cfg.Ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheInclusionProperty: a line just accessed is always present
// afterwards, whether it hit or was allocated by the miss.
func TestCacheInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCache(CacheConfig{Sets: 4, Ways: 4, LineBytes: 64})
		for i := 0; i < 100; i++ {
			a := uint64(rng.Intn(1 << 14))
			c.access(a)
			if !c.contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

// refCache is the two-pass reference LRU cache: lookup probes and
// refreshes a hit; fill then allocates over the first invalid way, else
// the least recently used one.
type refCache struct {
	ways      int
	lineShift uint
	setMask   uint64
	tags      []uint64
	valid     []bool
	lru       []uint64
	stamp     uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	n := cfg.Sets * cfg.Ways
	return &refCache{ways: cfg.Ways, lineShift: log2i(cfg.LineBytes), setMask: uint64(cfg.Sets - 1),
		tags: make([]uint64, n), valid: make([]bool, n), lru: make([]uint64, n)}
}

func (r *refCache) lookup(addr uint64) bool {
	line := addr >> r.lineShift
	base := int(line&r.setMask) * r.ways
	for w := 0; w < r.ways; w++ {
		if r.valid[base+w] && r.tags[base+w] == line {
			r.stamp++
			r.lru[base+w] = r.stamp
			return true
		}
	}
	return false
}

func (r *refCache) fill(addr uint64) {
	line := addr >> r.lineShift
	base := int(line&r.setMask) * r.ways
	victim := base
	for w := 0; w < r.ways; w++ {
		i := base + w
		if !r.valid[i] {
			victim = i
			break
		}
		if r.lru[i] < r.lru[victim] {
			victim = i
		}
	}
	r.stamp++
	r.tags[victim] = line
	r.valid[victim] = true
	r.lru[victim] = r.stamp
}

// TestCacheAccessMatchesTwoPassReference drives access and the reference
// lookup-then-fill model with the same random address streams and
// checks every hit/miss verdict and the final contents, way by way. The
// streams draw from a pool of a few times the cache's lines, so they
// repeat lines, hit, fill empty ways and evict.
func TestCacheAccessMatchesTwoPassReference(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{Sets: 16, Ways: 1, LineBytes: 64},
		{Sets: 64, Ways: 4, LineBytes: 64},  // L1
		{Sets: 512, Ways: 8, LineBytes: 64}, // SmallConfig L2
	} {
		lines := cfg.Sets * cfg.Ways
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, ref := newCache(cfg), newRefCache(cfg)
			pool := lines * int(seed)
			for i := 0; i < 20*lines; i++ {
				addr := uint64(rng.Intn(pool))*uint64(cfg.LineBytes) + uint64(rng.Intn(cfg.LineBytes))
				want := ref.lookup(addr)
				if !want {
					ref.fill(addr)
				}
				if got := c.access(addr); got != want {
					t.Fatalf("%dx%d seed %d access %d (%#x): hit=%v, reference %v", cfg.Sets, cfg.Ways, seed, i, addr, got, want)
				}
			}
			for i := range ref.tags {
				if (c.lru[i] != 0) != ref.valid[i] || ref.valid[i] && (c.tags[i] != ref.tags[i] || c.lru[i] != ref.lru[i]) {
					t.Fatalf("%dx%d seed %d way %d: tag %#x stamp %d, reference tag %#x stamp %d valid %v",
						cfg.Sets, cfg.Ways, seed, i, c.tags[i], c.lru[i], ref.tags[i], ref.lru[i], ref.valid[i])
				}
			}
		}
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{Sets: 64, Ways: 4, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := good.Bytes(); got != 64*4*64 {
		t.Fatalf("Bytes = %d", got)
	}
	bad := []CacheConfig{
		{Sets: 0, Ways: 4, LineBytes: 64},
		{Sets: 63, Ways: 4, LineBytes: 64}, // not a power of two
		{Sets: 64, Ways: 0, LineBytes: 64},
		{Sets: 64, Ways: 4, LineBytes: 0},
		{Sets: 64, Ways: 4, LineBytes: 48}, // not a power of two
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v validated, want error", cfg)
		}
	}
}
