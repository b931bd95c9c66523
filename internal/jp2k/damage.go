package jp2k

import (
	"fmt"
	"strings"

	"pj2k/internal/t2"
)

// TileDamage aggregates what a resilient decode lost in one tile: the tier-2
// packet walk's losses plus the tier-1 concealments of the tile's blocks.
type TileDamage struct {
	Tile            int // tile index (row-major in the tile grid)
	BadPackets      int // packets whose parse failed
	PacketsResynced int // successful resyncs to a later SOP marker
	PacketsLost     int // packets skipped (bad + swallowed by resync or abort)
	BlocksConcealed int // code-blocks truncated or zeroed by tier-1 concealment
	PassesDropped   int // coding passes those concealments discarded
	// IOUnreadable is the IO damage class: 1 when the tile's body could not
	// be read from the source (after whatever retries the source performed)
	// and the whole tile was concealed — damaged bytes vs unreadable bytes
	// are different operational problems and are reported distinctly.
	IOUnreadable int
}

// Any reports whether the tile recorded any damage.
func (d TileDamage) Any() bool {
	return d.BadPackets > 0 || d.PacketsLost > 0 || d.BlocksConcealed > 0 ||
		d.PassesDropped > 0 || d.IOUnreadable > 0
}

// DamageReport is what a resilient decode had to work around, aggregated per
// tile plus the container-level salvage. A fully clean stream produces a
// report with Damaged() == false.
type DamageReport struct {
	Container t2.ContainerDamage
	Tiles     []TileDamage // one entry per decoded tile that recorded damage
}

// Damaged reports whether anything at all was lost or concealed.
func (r *DamageReport) Damaged() bool {
	if r == nil {
		return false
	}
	if r.Container.Any() {
		return true
	}
	for _, t := range r.Tiles {
		if t.Any() {
			return true
		}
	}
	return false
}

// Totals sums the per-tile damage (the Tile field of the result is -1).
func (r *DamageReport) Totals() TileDamage {
	sum := TileDamage{Tile: -1}
	if r == nil {
		return sum
	}
	for _, t := range r.Tiles {
		sum.BadPackets += t.BadPackets
		sum.PacketsResynced += t.PacketsResynced
		sum.PacketsLost += t.PacketsLost
		sum.BlocksConcealed += t.BlocksConcealed
		sum.PassesDropped += t.PassesDropped
		sum.IOUnreadable += t.IOUnreadable
	}
	return sum
}

// String renders a one-line human-readable summary, e.g. for CLI stderr.
func (r *DamageReport) String() string {
	if !r.Damaged() {
		return "no damage"
	}
	var b strings.Builder
	if c := r.Container; c.Any() {
		fmt.Fprintf(&b, "container:")
		if c.Truncated {
			b.WriteString(" truncated")
		}
		if c.BadMarkers > 0 {
			fmt.Fprintf(&b, " %d bad markers", c.BadMarkers)
		}
		if c.BadTileParts > 0 {
			fmt.Fprintf(&b, " %d bad tile-parts", c.BadTileParts)
		}
		if c.BadStyles > 0 {
			fmt.Fprintf(&b, " %d unsupported COD fields", c.BadStyles)
		}
	}
	t := r.Totals()
	if t.Any() {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%d packets lost (%d bad, %d resyncs), %d blocks concealed (%d passes dropped)",
			t.PacketsLost, t.BadPackets, t.PacketsResynced, t.BlocksConcealed, t.PassesDropped)
		if t.IOUnreadable > 0 {
			fmt.Fprintf(&b, ", %d tile bodies unreadable (IO)", t.IOUnreadable)
		}
	}
	return b.String()
}

// TileIOError is a strict decode's typed failure to read a tile body from
// its source: the tile index and the byte span that could not be read. It
// wraps the source's *t2.ReadError, so errors.As reaches both layers.
type TileIOError struct {
	Tile     int   // tile index (row-major in the tile grid)
	Off, Len int64 // the unreadable body span within the codestream
	Err      error // the underlying source read failure
}

func (e *TileIOError) Error() string {
	return fmt.Sprintf("jp2k: tile %d body [%d, %d) unreadable: %v", e.Tile, e.Off, e.Off+e.Len, e.Err)
}

func (e *TileIOError) Unwrap() error { return e.Err }
