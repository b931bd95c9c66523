package dwt

import (
	"math"
	"sync"
)

// Kernel selects the wavelet filter pair.
type Kernel int

const (
	Rev53 Kernel = iota // reversible 5/3 integer lifting (lossless)
	Irr97               // irreversible 9/7 float lifting (lossy)
)

func (k Kernel) String() string {
	if k == Rev53 {
		return "5/3"
	}
	return "9/7"
}

// BandNorm returns the L2 norm of the synthesis basis vectors of the given
// subband: the factor by which unit quantization error in that band inflates
// image-domain MSE. Rather than hard-coding tables, the norms are measured
// numerically by synthesizing a centered impulse per band, which keeps them
// consistent with this implementation's exact filter conventions. Results
// are cached per (kernel, levels).
func BandNorm(k Kernel, levels int, b Subband) float64 {
	norms := bandNorms(k, levels)
	if b.Type == LL {
		return norms[0]
	}
	// Bands are stored LL, then (HL,LH,HH) per level from deepest (levels)
	// to shallowest (1).
	base := 1 + 3*(levels-b.Level)
	return norms[base+int(b.Type-HL)]
}

type normKey struct {
	k      Kernel
	levels int
}

var (
	normMu    sync.Mutex
	normCache = map[normKey][]float64{}
)

func bandNorms(k Kernel, levels int) []float64 {
	normMu.Lock()
	defer normMu.Unlock()
	if v, ok := normCache[normKey{k, levels}]; ok {
		return v
	}
	// A plane large enough that the deepest band is at least 8x8, so the
	// centered impulse's synthesis footprint avoids the borders.
	n := 8 << uint(levels)
	bands := Subbands(n, n, levels)
	norms := make([]float64, len(bands))
	f := &irr97
	if k == Rev53 {
		f = &lin53
	}
	for i, b := range bands {
		p := NewFPlane(n, n)
		cx := (b.X0 + b.X1) / 2
		cy := (b.Y0 + b.Y1) / 2
		p.Data[cy*p.Stride+cx] = 1
		run(p.plane(), levels, serial, f, false, nil)
		var sum2 float64
		for _, v := range p.Data {
			sum2 += float64(v * v)
		}
		norms[i] = math.Sqrt(sum2)
	}
	normCache[normKey{k, levels}] = norms
	return norms
}

// lin53 is the 5/3 synthesis without its floor rounding: the linear
// operator whose norms BandNorm measures. Only the naive inverse runs it.
var lin53 = filter[float64]{inv: inv53Linear}

// inv53Linear is inv53 with the rounding offsets and shifts replaced by
// exact division. It runs only to fill the norm cache, so it clamps at every
// step instead of keeping the clamps to the ends.
func inv53Linear(dst, src []float64) {
	n := len(src)
	if n < 2 {
		copy(dst, src)
		return
	}
	sn, dn := halves(n)
	for t := 0; t <= sn; t++ {
		if t < sn {
			dst[2*t] = src[t] - float64((src[sn+clamp(t-1, dn)]+src[sn+clamp(t, dn)])/4)
		}
		if j := t - 1; j >= 0 && j < dn {
			dst[2*j+1] = src[sn+j] + float64((dst[2*j]+dst[2*clamp(j+1, sn)])/2)
		}
	}
}
