package serve

import (
	"context"

	"pj2k/internal/raster"
)

// Kept for bench/ only; deleted in the benchmark PR (ROADMAP item 7).

// NewCache returns a cache of decoded *raster.Planar tiles holding at most
// maxBytes of int32 samples (4 bytes each, plus per-entry overhead).
// maxBytes <= 0 disables caching: every lookup decodes (still deduplicated
// while in flight). The server does not use this instantiation: it caches
// tiles in wire form (newWireCache).
func NewCache(maxBytes int64) *Cache[*raster.Planar] {
	return newCache(maxBytes, func(pl *raster.Planar) int64 {
		bytes := int64(tileOverhead)
		for _, comp := range pl.Comps {
			bytes += int64(len(comp.Pix)) * 4
		}
		return bytes
	})
}

// Outcomes GetOrDecode reports.
const (
	OutcomeHit  = cacheHit
	OutcomeMiss = cacheMiss
)

// GetOrDecode is getOrDecode without the ownership report.
func (c *Cache[V]) GetOrDecode(ctx context.Context, key TileKey, decode func() (V, error)) (V, cacheOutcome, error) {
	v, co, _, err := c.getOrDecode(ctx, key, decode)
	return v, co, err
}

// Cache exposes the server's tile cache.
func (s *Server) Cache() *Cache[[]byte] { return s.cache }
