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
		run(p.plane(), levels, Serial, f, false, nil)
		var sum2 float64
		for _, v := range p.Data {
			sum2 += v * v
		}
		norms[i] = math.Sqrt(sum2)
	}
	normCache[normKey{k, levels}] = norms
	return norms
}

// lin53 is the 5/3 synthesis without its floor rounding: the linear
// operator whose norms BandNorm measures. Only the naive inverse runs it.
var lin53 = filter[float64]{inv: lift53InvLinear}

// lift53InvLinear is lift53Inv with the rounding offsets and shifts replaced
// by exact division.
func lift53InvLinear(buf []float64) {
	n := len(buf)
	if n < 2 {
		return
	}
	sn := (n + 1) / 2
	dn := n / 2
	for i := 0; i < sn; i++ {
		d0 := buf[2*clamp(i-1, dn)+1]
		d1 := buf[2*clamp(i, dn)+1]
		buf[2*i] -= (d0 + d1) / 4
	}
	for i := 0; i < dn; i++ {
		s1 := buf[2*clamp(i+1, sn)]
		buf[2*i+1] += (buf[2*i] + s1) / 2
	}
}
