package t1

// Kept for bench/ only; deleted in the benchmark PR (ROADMAP item 7).

// NewCoder returns an empty Coder; buffers are sized on first use.
func NewCoder() *Coder { return &Coder{} }

// NewBlockDecoder returns an empty BlockDecoder; buffers are sized on first
// use.
func NewBlockDecoder() *BlockDecoder { return &BlockDecoder{} }

// DecodeBlock is DecodeInto's arena form: it decodes a block into a W x H
// slice (stride W) of an arena owned by the BlockDecoder, valid until Release.
func (bd *BlockDecoder) DecodeBlock(in *BlockIn, resilient bool) ([]int32, SegStats, error) {
	n := max(in.W, 0) * max(in.H, 0)
	if cap(bd.out)-len(bd.out) < n {
		// A fresh chunk; slices handed out earlier keep the old one.
		bd.out = make([]int32, 0, max(2*cap(bd.out), n, 1<<12))
	}
	out := bd.out[len(bd.out) : len(bd.out)+n : len(bd.out)+n]
	bd.out = bd.out[:len(bd.out)+n]
	st, err := bd.DecodeInto(in, &Dest{Int: out, Stride: in.W}, resilient)
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// Release reclaims every sample slice returned by DecodeBlock since the
// last Release. The caller must have dropped all references to them.
func (bd *BlockDecoder) Release() { bd.out = bd.out[:0] }
