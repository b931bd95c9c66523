package t2

import (
	"encoding/binary"
	"fmt"

	"pj2k/internal/quant"
)

// TileSpan is the byte range of one tile-part body (the bytes after SOD,
// through the end the Psot field declares) within its codestream.
type TileSpan struct {
	Off, Len int64
}

// End returns the offset one past the span.
func (s TileSpan) End() int64 { return s.Off + s.Len }

// sourceChunk is the read-ahead granularity of the windowed source reader.
// Main-header markers are parsed out of chunked windows (one refill usually
// covers the whole header); the tile-part chain walk bypasses chunking with
// exact reads so indexing never touches body bytes.
const sourceChunk = 8 << 10

// sreader reads a codestream through a Source with one buffered sliding
// window. It also owns the storage the parsed header's per-component
// quantization slices are carved from, so a Scanner reuses both.
type sreader struct {
	src *Source
	pos int64
	win []byte // buffered bytes src[wlo : wlo+len(win))
	wlo int64
	buf []byte // backing storage for the window

	mb      [][]int        // Params.Mb, one entry per component
	steps   [][]quant.Step // Params.Steps
	bands   []int          // every QCD/QCC's band values, back to back
	stepv   []quant.Step   // every QCD/QCC's steps, back to back
	qccSeen []bool         // per component: quantization pinned by a QCC marker
}

// view returns n bytes at the current position without consuming them,
// refilling the window from the source on a miss. An exact refill reads
// precisely n bytes — the SOT-chain walk uses it so seeking tile to tile
// reads headers only — while a chunked refill reads ahead up to sourceChunk.
func (r *sreader) view(n int, exact bool) ([]byte, error) {
	if r.pos+int64(n) > r.src.Size() {
		return nil, fmt.Errorf("t2: truncated codestream at %d", r.pos)
	}
	if r.pos >= r.wlo && r.pos+int64(n) <= r.wlo+int64(len(r.win)) {
		o := int(r.pos - r.wlo)
		return r.win[o : o+n : o+n], nil
	}
	want := n
	if !exact {
		want = sourceChunk
		if rem := r.src.Size() - r.pos; int64(want) > rem {
			want = int(rem)
		}
		if want < n {
			want = n
		}
	}
	if cap(r.buf) < want {
		r.buf = make([]byte, want)
	}
	b := r.buf[:want]
	if _, err := r.src.ReadAt(b, r.pos); err != nil {
		return nil, err
	}
	r.win, r.wlo = b, r.pos
	return b[:n:n], nil
}

func (r *sreader) u8() (int, error) {
	b, err := r.view(1, false)
	if err != nil {
		return 0, err
	}
	r.pos++
	return int(b[0]), nil
}

func (r *sreader) u16() (int, error) {
	b, err := r.view(2, false)
	if err != nil {
		return 0, err
	}
	r.pos += 2
	return int(binary.BigEndian.Uint16(b)), nil
}

func (r *sreader) u32() (int, error) {
	b, err := r.view(4, false)
	if err != nil {
		return 0, err
	}
	r.pos += 4
	return int(binary.BigEndian.Uint32(b)), nil
}

// u16e is u16 with an exact refill: the between-tile-part marker read, which
// must not read ahead into the next tile body.
func (r *sreader) u16e() (int, error) {
	b, err := r.view(2, true)
	if err != nil {
		return 0, err
	}
	r.pos += 2
	return int(binary.BigEndian.Uint16(b)), nil
}

// Scanner is the reusable container scan: its read window, its span list and
// the per-component quantization slices of the Params it returns are kept
// between scans and reshaped in place, so rescanning a stream whose header
// and tile count are no larger than an earlier one's allocates nothing. The
// Params slices and spans Scan returns alias that storage and stay valid
// until the Scanner's next Scan. A Scanner is not safe for concurrent use;
// its zero value is ready.
type Scanner struct {
	r     sreader
	spans []TileSpan
}

// Scan parses src's main header and walks the SOT/Psot tile-part chain,
// seeking tile to tile without reading any body bytes: the parse cost (and
// IO) of registering a stream is its headers, not its size. The returned
// spans locate each tile-part body in the source, in chain order. The scan is
// strict, or with resilient set best-effort (see ScanCodestreamResilient).
func (s *Scanner) Scan(src *Source, resilient bool) (Params, []TileSpan, ContainerDamage, error) {
	s.r.src, s.r.pos, s.r.win, s.r.wlo = src, 0, nil, 0
	s.r.bands, s.r.stepv = s.r.bands[:0], s.r.stepv[:0]
	p, spans, dmg, err := s.r.scan(s.spans[:0], resilient)
	s.r.src, s.r.win = nil, nil // pin no source between scans
	if cap(spans) > cap(s.spans) {
		s.spans = spans[:0]
	}
	return p, spans, dmg, err
}

// ScanCodestreamResilient is a one-shot best-effort Scan: a truncated
// stream keeps the spans that survive, a tile-part with an implausible Psot
// is re-bounded by scanning for the next tile-part boundary, and unknown
// main-header markers are skipped by their declared length — with everything
// salvaged around reported in ContainerDamage. An error is returned only when
// not even the SOC survives; callers must still CheckGeometry the result
// before decoding.
func ScanCodestreamResilient(src *Source) (Params, []TileSpan, ContainerDamage, error) {
	return new(Scanner).Scan(src, true)
}

// scan is Scanner.Scan over the reset reader, appending spans to spans.
func (r *sreader) scan(spans []TileSpan, resilient bool) (Params, []TileSpan, ContainerDamage, error) {
	var p Params
	var dmg ContainerDamage
	if m, err := r.u16(); err != nil || m != mSOC {
		if err != nil {
			// Keep the read error in the chain: an unreadable first chunk is
			// an IO fault (errors.As-able), not a malformed stream.
			return p, nil, dmg, fmt.Errorf("t2: missing SOC: %w", err)
		}
		return p, nil, dmg, fmt.Errorf("t2: missing SOC (got %#x)", m)
	}
	for {
		m, err := r.u16e()
		if err != nil { // stream ends without EOC
			if resilient {
				dmg.Truncated = true
				return p, spans, dmg, nil
			}
			return p, nil, dmg, err
		}
		switch m {
		case mSIZ:
			err = r.readSIZ(&p)
		case mCOD:
			err = r.readCOD(&p, resilient, &dmg)
		case mQCD:
			err = r.readQCD(&p)
		case mQCC:
			err = r.readQCC(&p)
		case mRGN:
			err = r.readRGN(&p)
		case mSOT:
			spans, err = r.scanTilePart(spans, resilient, &dmg)
		case mEOC:
			return p, spans, dmg, nil
		default:
			if !resilient {
				return p, nil, dmg, fmt.Errorf("t2: unexpected marker %#x at %d", m, r.pos-2)
			}
			// Unknown or corrupt marker: skip it by its declared length, or
			// give up on the remainder when that overruns the stream.
			dmg.BadMarkers++
			l, lerr := r.u16()
			if lerr != nil || l < 2 || r.pos+int64(l)-2 > r.src.Size() {
				dmg.Truncated = true
				return p, spans, dmg, nil
			}
			r.pos += int64(l) - 2
			continue
		}
		if err != nil {
			if resilient {
				// Mid-marker damage: keep what already parsed; the caller's
				// CheckGeometry decides whether it is enough to decode.
				dmg.Truncated = true
				return p, spans, dmg, nil
			}
			return p, nil, dmg, err
		}
	}
}

// scanTilePart parses one SOT..SOD tile-part header (the SOT marker itself is
// already consumed) and records the body span. The fixed 12-byte header tail
// — Lsot, Isot, Psot, TPsot, TNsot, then the SOD marker — is read exactly and
// the body is skipped by seeking, never read. In resilient mode an
// implausible Psot does not abort: the body is re-bounded by scanning for the
// next tile-part boundary instead.
func (r *sreader) scanTilePart(spans []TileSpan, resilient bool, dmg *ContainerDamage) ([]TileSpan, error) {
	hdr, err := r.view(12, true)
	if err != nil {
		return spans, err
	}
	r.pos += 12
	psot := int64(binary.BigEndian.Uint32(hdr[4:8]))
	if m := int(binary.BigEndian.Uint16(hdr[10:12])); m != mSOD {
		return spans, fmt.Errorf("t2: missing SOD (got %#x)", m)
	}
	bodyOff := r.pos
	bodyLen := psot - 12 - 2 // Psot counts from the SOT marker itself
	if bodyLen < 0 || bodyOff+bodyLen > r.src.Size() {
		if !resilient {
			return spans, fmt.Errorf("t2: bad Psot %d", psot)
		}
		dmg.BadTileParts++
		bodyLen = r.findTilePartEnd(bodyOff) - bodyOff
	}
	r.pos = bodyOff + bodyLen
	return append(spans, TileSpan{Off: bodyOff, Len: bodyLen}), nil
}

// findTilePartEnd scans for the next tile-part boundary — an SOT or EOC
// marker — at or after pos. MQ bit-stuffing keeps bytes above 0x8F out of the
// positions following any 0xFF inside codeword segments and stuffed packet
// headers, so the scan lands on a real boundary (a pathological SOP sequence
// number embedding 0xFF90 is the only false positive, and costs only some
// extra reported damage). Only the resilient salvage path reaches it, so
// reading body bytes here is fine — the stream is already known damaged.
func (r *sreader) findTilePartEnd(pos int64) int64 {
	size := r.src.Size()
	buf := make([]byte, sourceChunk)
	for pos+1 < size {
		n := int(size - pos)
		if n > len(buf) {
			n = len(buf)
		}
		if _, err := r.src.ReadAt(buf[:n], pos); err != nil {
			return size
		}
		for i := 0; i+1 < n; i++ {
			if buf[i] == 0xFF && (buf[i+1] == mSOT&0xFF || buf[i+1] == mEOC&0xFF) {
				return pos + int64(i)
			}
		}
		// Overlap one byte so a marker split across chunk boundaries is seen.
		pos += int64(n - 1)
	}
	return size
}
