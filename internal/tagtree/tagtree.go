// Package tagtree implements the JPEG2000 tag trees (ISO/IEC 15444-1 B.10.2)
// used by tier-2 packet headers to code code-block inclusion layers and
// zero-bit-plane counts. A tag tree codes a 2-D array of non-negative
// integers by quad-tree minima, emitting information incrementally across
// successive threshold queries.
package tagtree

// BitWriter is the bit sink used during encoding (a bitio.StuffWriter in
// tier-2).
type BitWriter interface {
	WriteBit(b int)
}

// BitReader is the bit source used during decoding.
type BitReader interface {
	ReadBit() (int, error)
}

type node struct {
	value  int // min of subtree leaf values (encoder side)
	low    int // lower bound established with the decoder
	known  bool
	parent int // index of parent node, -1 at root
}

// Tree is a tag tree over an ncols x nrows grid of leaves. Nodes are stored
// level by level, leaves first, so the first internal node is at ncols*nrows
// and the root is last.
type Tree struct {
	ncols, nrows int
	nodes        []node
	dirty        bool
}

// New builds a tag tree for the given grid. Leaf values are set with
// SetValue before encoding; decoders leave them unset.
func New(ncols, nrows int) *Tree {
	t := new(Tree)
	t.Reshape(ncols, nrows)
	return t
}

// Reshape rebuilds t for an ncols x nrows grid with all coding state and
// values cleared, as New would return it, reusing t's node storage when it is
// large enough: a pooled tree follows its band's shape without allocating.
func (t *Tree) Reshape(ncols, nrows int) {
	if ncols <= 0 || nrows <= 0 {
		panic("tagtree: empty grid")
	}
	t.ncols, t.nrows = ncols, nrows
	total := 0
	for c, r := ncols, nrows; ; c, r = (c+1)/2, (r+1)/2 {
		total += c * r
		if c == 1 && r == 1 {
			break
		}
	}
	if cap(t.nodes) < total {
		t.nodes = make([]node, total)
	}
	t.nodes = t.nodes[:total]
	// Level by level: node (x, y) of a c x r level at base has parent
	// (x/2, y/2) in the next level, which starts right after this one.
	base := 0
	for c, r := ncols, nrows; c*r > 1; c, r = (c+1)/2, (r+1)/2 {
		next, pc := base+c*r, (c+1)/2
		for y := 0; y < r; y++ {
			for x := 0; x < c; x++ {
				t.nodes[base+y*c+x] = node{parent: next + (y/2)*pc + x/2}
			}
		}
		base = next
	}
	t.nodes[total-1] = node{parent: -1}
	t.dirty = false
}

// SetValue sets the leaf (x, y) to v. All leaf values must be set before the
// first Encode call; internal minima are recomputed lazily.
func (t *Tree) SetValue(x, y, v int) {
	t.nodes[y*t.ncols+x].value = v
	t.dirty = true
}

// Value returns the current leaf value (encoder side).
func (t *Tree) Value(x, y int) int { return t.nodes[y*t.ncols+x].value }

// propagate recomputes internal minima from leaf values.
func (t *Tree) propagate() {
	if !t.dirty {
		return
	}
	t.dirty = false
	const maxInt = int(^uint(0) >> 1)
	for i := t.ncols * t.nrows; i < len(t.nodes); i++ {
		t.nodes[i].value = maxInt
	}
	for i := 0; i < len(t.nodes)-1; i++ { // every node except the root
		p := t.nodes[i].parent
		if t.nodes[i].value < t.nodes[p].value {
			t.nodes[p].value = t.nodes[i].value
		}
	}
}

// path fills buf with the node indices from the leaf (x,y) up to the root and
// returns the count.
func (t *Tree) path(x, y int, buf *[32]int) int {
	n := 0
	for i := y*t.ncols + x; i != -1; i = t.nodes[i].parent {
		buf[n] = i
		n++
	}
	return n
}

// Encode emits the bits that tell the decoder whether value(x,y) < threshold,
// advancing the shared tree state.
func (t *Tree) Encode(w BitWriter, x, y, threshold int) {
	t.propagate()
	var buf [32]int
	n := t.path(x, y, &buf)
	low := 0
	for k := n - 1; k >= 0; k-- {
		nd := &t.nodes[buf[k]]
		if nd.low < low {
			nd.low = low
		}
		for !nd.known && nd.low < threshold {
			if nd.low < nd.value {
				w.WriteBit(0)
				nd.low++
			} else {
				w.WriteBit(1)
				nd.known = true
			}
		}
		low = nd.low
	}
}

// EncodeValue emits bits until the decoder knows value(x,y) exactly (used
// for zero-bit-plane counts at first inclusion).
func (t *Tree) EncodeValue(w BitWriter, x, y int) {
	t.propagate()
	leaf := &t.nodes[y*t.ncols+x]
	for thr := 1; !leaf.known; thr++ {
		t.Encode(w, x, y, thr)
	}
}

// Decode consumes bits and reports whether value(x,y) < threshold.
func (t *Tree) Decode(r BitReader, x, y, threshold int) (bool, error) {
	var buf [32]int
	n := t.path(x, y, &buf)
	low := 0
	for k := n - 1; k >= 0; k-- {
		nd := &t.nodes[buf[k]]
		if nd.low < low {
			nd.low = low
		}
		for !nd.known && nd.low < threshold {
			bit, err := r.ReadBit()
			if err != nil {
				return false, err
			}
			if bit == 0 {
				nd.low++
			} else {
				nd.known = true
			}
		}
		low = nd.low
	}
	leaf := &t.nodes[y*t.ncols+x]
	return leaf.known && leaf.low < threshold, nil
}

// DecodeValue consumes bits until value(x,y) is exactly known and returns it.
func (t *Tree) DecodeValue(r BitReader, x, y int) (int, error) {
	leaf := &t.nodes[y*t.ncols+x]
	for thr := 1; !leaf.known; thr++ {
		if _, err := t.Decode(r, x, y, thr); err != nil {
			return 0, err
		}
	}
	return leaf.low, nil
}
