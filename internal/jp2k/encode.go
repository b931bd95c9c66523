package jp2k

import (
	"pj2k/internal/core"
	"pj2k/internal/dwt"
	"pj2k/internal/quant"
	"pj2k/internal/raster"
	"pj2k/internal/t1"
	"pj2k/internal/t2"
)

// blockJob couples one code-block's coefficient view with its geometry and
// its band, whose resolution level groups it for the tier-1 pilot.
type blockJob struct {
	data    []int32
	w, h    int
	stride  int
	band    dwt.BandType
	comp    int  // component index
	bandIdx int  // subband index within the tile (indexes Encoder.weights)
	pilot   bool // coded in full ahead of the rest to predict the stop threshold
}

// tileEnc is the per-(component, tile) encoding state, pooled inside an
// Encoder: the coefficient planes and quantization arena persist across
// encodes. Its geometry is its tile's layout, which the encoder derives from
// its Params as every reader does.
type tileEnc struct {
	lay    *t2.TileLayout     // the tile's size, origin and subbands
	bands  []t2.BandBlocks    // lay.Comps[ci]: this component's grids, Mb and block streams
	blocks []*t1.EncodedBlock // tile-local global order (bands raster)
	// coefficient storage kept alive for the tier-1 jobs
	intPlane  *raster.Image
	fplane    *dwt.FPlane
	bandArena []int32
	bandInts  [][]int32
	qjobs     []quant.BandJob
}

// Encode compresses a single-component image into a JPEG2000 codestream.
// It is a convenience wrapper over a throwaway Encoder dispatching on the
// shared default worker pool (so one-shot calls neither spawn nor leak
// workers); callers encoding repeatedly should hold an Encoder to amortize
// its pooled state.
func Encode(im *raster.Image, opts Options) ([]byte, *EncodeStats, error) {
	return NewEncoderWithPool(core.Default()).Encode(im, opts)
}

// EncodePlanar compresses a multi-component image into a single standard
// Csiz=N codestream. One-shot wrapper over a throwaway Encoder; see
// Encoder.EncodePlanar.
func EncodePlanar(pl *raster.Planar, opts Options) ([]byte, *EncodeStats, error) {
	return NewEncoderWithPool(core.Default()).EncodePlanar(pl, opts)
}
