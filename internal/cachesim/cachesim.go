// Package cachesim implements a set-associative cache simulator with LRU
// replacement. The paper's central performance diagnosis — an entire image
// column mapping onto a single cache set during vertical wavelet filtering
// when the width is a power of two — is reproduced here deterministically:
// the simulator counts misses for the exact access patterns of the filtering
// strategies in internal/dwt.
package cachesim

import "fmt"

// Config describes a cache. The defaults (NewPentiumII) model the L1 data
// cache of the paper's Intel Pentium II Xeon testbed: 16 KiB, 4-way,
// 32-byte lines.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// NewPentiumII returns the paper's L1 configuration.
func NewPentiumII() Config { return Config{SizeBytes: 16 * 1024, Ways: 4, LineBytes: 32} }

// NewSGIIP25 approximates the SGI Power Challenge IP25 primary data cache:
// 16 KiB, 1-way (direct mapped), 32-byte lines.
func NewSGIIP25() Config { return Config{SizeBytes: 16 * 1024, Ways: 1, LineBytes: 32} }

// Cache is a simulated cache. Not safe for concurrent use; the SMP model
// instantiates one per simulated processor.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	// tags[set*ways+way]; lru[set*ways+way] holds a recency counter.
	tags   []uint64
	valid  []bool
	lru    []uint64
	clock  uint64
	hits   uint64
	misses uint64
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cachesim: bad config %+v", cfg))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: set count %d not a power of two", sets))
	}
	lb := uint(0)
	for 1<<lb < cfg.LineBytes {
		lb++
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		lineBits: lb,
		tags:     make([]uint64, sets*cfg.Ways),
		valid:    make([]bool, sets*cfg.Ways),
		lru:      make([]uint64, sets*cfg.Ways),
	}
}

// Access touches the byte address and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line) & (c.sets - 1)
	tag := line >> uint(log2(c.sets))
	base := set * c.cfg.Ways
	c.clock++
	// Hit?
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.lru[base+w] = c.clock
			c.hits++
			return true
		}
	}
	// Miss: evict LRU way.
	victim := base
	for w := 1; w < c.cfg.Ways; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
		if c.lru[base+w] < c.lru[victim] {
			victim = base + w
		}
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.lru[victim] = c.clock
	c.misses++
	return false
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.clock, c.hits, c.misses = 0, 0, 0
}

func log2(v int) int {
	k := 0
	for v > 1 {
		v >>= 1
		k++
	}
	return k
}
