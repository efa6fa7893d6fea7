package gpusim

// cache is a set-associative cache with true-LRU replacement, keyed by
// line address (byte address >> lineShift). It stores tags only — the
// simulator models timing and occupancy, not data contents.
type cache struct {
	sets      int
	ways      int
	lineShift uint
	setMask   uint64

	// tags[set*ways+way] holds the line tag.
	tags []uint64
	// lru[set*ways+way] is a recency stamp; larger = more recent. Stamps
	// start at 1, so 0 marks an empty way.
	lru   []uint64
	stamp uint64
}

func log2i(v int) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

func newCache(cfg CacheConfig) *cache {
	n := cfg.Sets * cfg.Ways
	return &cache{
		sets:      cfg.Sets,
		ways:      cfg.Ways,
		lineShift: log2i(cfg.LineBytes),
		setMask:   uint64(cfg.Sets - 1),
		tags:      make([]uint64, n),
		lru:       make([]uint64, n),
	}
}

// access looks up the line containing addr and reports whether it hit. A
// hit refreshes the line's recency; a miss allocates the line over the
// way with the smallest stamp, first index on ties, in the same scan.
// Empty ways have stamp 0, so that is the first empty way, else the LRU.
func (c *cache) access(addr uint64) (hit bool) {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	tags := c.tags[base : base+c.ways]
	lru := c.lru[base:][:len(tags)]
	c.stamp++
	victim := 0
	for w, tag := range tags {
		if tag == line && lru[w] != 0 {
			lru[w] = c.stamp
			return true
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	tags[victim] = line
	lru[victim] = c.stamp
	return false
}

// clone returns a deep copy (for simulator state snapshots).
func (c *cache) clone() *cache {
	cp := *c
	cp.tags = append([]uint64(nil), c.tags...)
	cp.lru = append([]uint64(nil), c.lru...)
	return &cp
}
