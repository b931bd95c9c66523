package cachesim

import "testing"

// missRate is misses / accesses (0 if untouched).
func missRate(c *Cache) float64 {
	hits, misses := c.Stats()
	if hits+misses == 0 {
		return 0
	}
	return float64(misses) / float64(hits+misses)
}

func TestSequentialAccessMissRate(t *testing.T) {
	c := New(NewPentiumII())
	// Streaming 64 KiB of int32s: one miss per 32-byte line = 1/8 accesses.
	for i := 0; i < 16384; i++ {
		c.Access(uint64(i * 4))
	}
	if mr := missRate(c); mr < 0.12 || mr > 0.13 {
		t.Fatalf("sequential miss rate %.4f, want 0.125", mr)
	}
}

func TestRepeatedAccessHits(t *testing.T) {
	c := New(NewPentiumII())
	c.Access(0x1000)
	for i := 0; i < 100; i++ {
		if !c.Access(0x1000) {
			t.Fatal("repeated access missed")
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != 100 {
		t.Fatalf("hits %d misses %d", hits, misses)
	}
}

func TestAssociativityConflict(t *testing.T) {
	cfg := NewPentiumII() // 128 sets x 4 ways x 32B
	c := New(cfg)
	setSpan := uint64(cfg.SizeBytes / cfg.Ways) // bytes between same-set lines
	// 4 distinct lines in one set: all fit.
	for round := 0; round < 3; round++ {
		for w := uint64(0); w < 4; w++ {
			c.Access(w * setSpan)
		}
	}
	_, misses := c.Stats()
	if misses != 4 {
		t.Fatalf("4-way set with 4 lines: %d misses, want 4 (capacity fits)", misses)
	}
	// A 5th line thrashes under LRU.
	c.Reset()
	for round := 0; round < 10; round++ {
		for w := uint64(0); w < 5; w++ {
			c.Access(w * setSpan)
		}
	}
	if mr := missRate(c); mr < 0.99 {
		t.Fatalf("5 lines cycling a 4-way set: miss rate %.3f, want ~1 (LRU thrash)", mr)
	}
}

func TestPowerOfTwoColumnPathology(t *testing.T) {
	// The paper's diagnosis: with width a power of two and "the filter
	// length longer than 4 (this corresponds to the 4-way associative
	// cache)", an entire image column maps onto a single cache set and the
	// sliding filter window thrashes. The default 9/7 filters are 9/7 taps.
	cfg := NewPentiumII()
	c := New(cfg)
	const width = 4096 // samples; 4096*4 = 16 KiB stride
	for r := 4; r < 1000; r++ {
		for k := -4; k <= 4; k++ { // 9-tap window down one column
			c.Access(uint64((r + k) * width * 4))
		}
	}
	if mr := missRate(c); mr < 0.9 {
		t.Fatalf("power-of-two column walk miss rate %.3f, want ~1", mr)
	}
	// A 5-tap window (5/3 filter) fits the 4 ways with LRU: the paper's
	// threshold is exactly the associativity.
	c5 := New(cfg)
	for r := 2; r < 1000; r++ {
		for k := -2; k <= 2; k++ {
			c5.Access(uint64((r + k) * width * 4))
		}
	}
	if mr := missRate(c5); mr > 0.3 {
		t.Fatalf("5-tap window miss rate %.3f; should survive a 4-way cache", mr)
	}
	// Padding the stride off the power of two spreads the column across
	// sets; the 9-tap window now stays resident.
	c2 := New(cfg)
	const padded = 4096 + 8
	for r := 4; r < 1000; r++ {
		for k := -4; k <= 4; k++ {
			c2.Access(uint64((r + k) * padded * 4))
		}
	}
	if mr := missRate(c2); mr > 0.2 {
		t.Fatalf("padded column walk miss rate %.3f, want ~0.11 (1 new row per output)", mr)
	}
}

func TestDirectMappedSGI(t *testing.T) {
	c := New(NewSGIIP25())
	if c.sets != 512 {
		t.Fatalf("SGI config: %d sets, want 512", c.sets)
	}
	// Two lines in the same set of a direct-mapped cache always conflict.
	span := uint64(16 * 1024)
	for i := 0; i < 10; i++ {
		c.Access(0)
		c.Access(span)
	}
	if mr := missRate(c); mr != 1 {
		t.Fatalf("direct-mapped conflict miss rate %.3f, want 1", mr)
	}
}

func TestResetClearsState(t *testing.T) {
	c := New(NewPentiumII())
	c.Access(0)
	c.Reset()
	hits, misses := c.Stats()
	if hits != 0 || misses != 0 {
		t.Fatal("reset did not clear counters")
	}
	if c.Access(0) {
		t.Fatal("reset did not clear contents")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for zero-way config")
		}
	}()
	New(Config{SizeBytes: 1024, Ways: 0, LineBytes: 32})
}
