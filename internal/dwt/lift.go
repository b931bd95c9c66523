// Package dwt implements the JPEG2000 wavelet transforms: the reversible 5/3
// integer lifting (lossless path) and the irreversible 9/7 float lifting
// (lossy path), over multiple decomposition levels, with the two vertical
// filtering strategies the paper studies: the original column-at-a-time
// filter and the improved blocked filter that processes several adjacent
// columns concurrently inside one processor. Width padding, the paper's
// other cache fix, is a plane stride wider than the image, not a mode.
//
// One generic level loop (run) serves both sample types, both directions,
// both vertical strategies and the timed entry points; the lifting kernels
// in this file are the only code written per filter.
package dwt

// 9/7 lifting constants (ISO/IEC 15444-1, Table F.4 conventions).
const (
	alpha97 = -1.586134342059924
	beta97  = -0.052980118572961
	gamma97 = 0.882911075530934
	delta97 = 0.443506852043971
	k97     = 1.230174104914001
)

var (
	rev53 = filter[int32]{lift53Fwd, lift53Inv, cols53Fwd, cols53Inv}
	irr97 = filter[float64]{lift97Fwd, lift97Inv, cols97Fwd, cols97Inv}
)

// clamp clamps a neighbour index into [0, n) for symmetric extension: for
// the 5/3 and 9/7 lifting steps, mirroring the signal at even boundaries is
// equivalent to clamping neighbour indices into the valid range.
func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// lift53Fwd applies the forward 5/3 lifting to an interleaved contiguous
// signal buf (even samples = lowpass positions). len(buf) >= 2.
func lift53Fwd(buf []int32) {
	n := len(buf)
	if n < 2 {
		return
	}
	sn := (n + 1) / 2 // lowpass count (even origin)
	dn := n / 2       // highpass count
	// Predict: d(i) -= (s(i) + s(i+1)) >> 1
	for i := 0; i < dn; i++ {
		s1 := buf[2*clamp(i+1, sn)]
		buf[2*i+1] -= (buf[2*i] + s1) >> 1
	}
	// Update: s(i) += (d(i-1) + d(i) + 2) >> 2
	for i := 0; i < sn; i++ {
		d0 := buf[2*clamp(i-1, dn)+1]
		d1 := buf[2*clamp(i, dn)+1]
		buf[2*i] += (d0 + d1 + 2) >> 2
	}
}

// lift53Inv inverts lift53Fwd.
func lift53Inv(buf []int32) {
	n := len(buf)
	if n < 2 {
		return
	}
	sn := (n + 1) / 2
	dn := n / 2
	for i := 0; i < sn; i++ {
		d0 := buf[2*clamp(i-1, dn)+1]
		d1 := buf[2*clamp(i, dn)+1]
		buf[2*i] -= (d0 + d1 + 2) >> 2
	}
	for i := 0; i < dn; i++ {
		s1 := buf[2*clamp(i+1, sn)]
		buf[2*i+1] += (buf[2*i] + s1) >> 1
	}
}

// cols53Fwd applies lift53Fwd to the columns [x0,x1) over rows [0,ch) in
// place, sweeping row-wise so adjacent columns share cache lines. ch >= 2.
func cols53Fwd(pix []int32, stride, x0, x1, ch int) {
	sn := (ch + 1) / 2
	dn := ch / 2
	// Predict: odd row 2i+1 -= (row 2i + row 2*min(i+1,sn-1)) >> 1.
	for i := 0; i < dn; i++ {
		rd := (2*i + 1) * stride
		rs0 := 2 * i * stride
		rs1 := 2 * clamp(i+1, sn) * stride
		for x := x0; x < x1; x++ {
			pix[rd+x] -= (pix[rs0+x] + pix[rs1+x]) >> 1
		}
	}
	// Update: even row 2i += (odd clamp(i-1) + odd clamp(i) + 2) >> 2.
	for i := 0; i < sn; i++ {
		rs := 2 * i * stride
		rd0 := (2*clamp(i-1, dn) + 1) * stride
		rd1 := (2*clamp(i, dn) + 1) * stride
		for x := x0; x < x1; x++ {
			pix[rs+x] += (pix[rd0+x] + pix[rd1+x] + 2) >> 2
		}
	}
}

// cols53Inv inverts cols53Fwd.
func cols53Inv(pix []int32, stride, x0, x1, ch int) {
	sn := (ch + 1) / 2
	dn := ch / 2
	for i := 0; i < sn; i++ {
		rs := 2 * i * stride
		rd0 := (2*clamp(i-1, dn) + 1) * stride
		rd1 := (2*clamp(i, dn) + 1) * stride
		for x := x0; x < x1; x++ {
			pix[rs+x] -= (pix[rd0+x] + pix[rd1+x] + 2) >> 2
		}
	}
	for i := 0; i < dn; i++ {
		rd := (2*i + 1) * stride
		rs0 := 2 * i * stride
		rs1 := 2 * clamp(i+1, sn) * stride
		for x := x0; x < x1; x++ {
			pix[rd+x] += (pix[rs0+x] + pix[rs1+x]) >> 1
		}
	}
}

// lift97Fwd applies the forward 9/7 lifting (four steps plus scaling) to an
// interleaved contiguous signal.
func lift97Fwd(buf []float64) {
	n := len(buf)
	sn := (n + 1) / 2
	dn := n / 2
	if dn == 0 {
		return // single lowpass sample passes through
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] += alpha97 * (buf[2*i] + buf[2*clamp(i+1, sn)])
	}
	for i := 0; i < sn; i++ {
		buf[2*i] += beta97 * (buf[2*clamp(i-1, dn)+1] + buf[2*clamp(i, dn)+1])
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] += gamma97 * (buf[2*i] + buf[2*clamp(i+1, sn)])
	}
	for i := 0; i < sn; i++ {
		buf[2*i] += delta97 * (buf[2*clamp(i-1, dn)+1] + buf[2*clamp(i, dn)+1])
	}
	for i := 0; i < sn; i++ {
		buf[2*i] *= 1 / k97
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] *= k97
	}
}

// lift97Inv inverts lift97Fwd.
func lift97Inv(buf []float64) {
	n := len(buf)
	sn := (n + 1) / 2
	dn := n / 2
	if dn == 0 {
		return
	}
	for i := 0; i < sn; i++ {
		buf[2*i] *= k97
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] *= 1 / k97
	}
	for i := 0; i < sn; i++ {
		buf[2*i] -= delta97 * (buf[2*clamp(i-1, dn)+1] + buf[2*clamp(i, dn)+1])
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] -= gamma97 * (buf[2*i] + buf[2*clamp(i+1, sn)])
	}
	for i := 0; i < sn; i++ {
		buf[2*i] -= beta97 * (buf[2*clamp(i-1, dn)+1] + buf[2*clamp(i, dn)+1])
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] -= alpha97 * (buf[2*i] + buf[2*clamp(i+1, sn)])
	}
}

// cols97Fwd applies lift97Fwd to the columns [x0,x1) over rows [0,ch) in
// place, row-wise like cols53Fwd. ch >= 2.
func cols97Fwd(pix []float64, stride, x0, x1, ch int) {
	step97(pix, stride, x0, x1, ch, alpha97, true)
	step97(pix, stride, x0, x1, ch, beta97, false)
	step97(pix, stride, x0, x1, ch, gamma97, true)
	step97(pix, stride, x0, x1, ch, delta97, false)
	scale97(pix, stride, x0, x1, ch, 1/k97, k97)
}

// cols97Inv inverts cols97Fwd. Adding -c·s is bit-identical to lift97Inv's
// subtracting c·s: negation is exact.
func cols97Inv(pix []float64, stride, x0, x1, ch int) {
	scale97(pix, stride, x0, x1, ch, k97, 1/k97)
	step97(pix, stride, x0, x1, ch, -delta97, false)
	step97(pix, stride, x0, x1, ch, -gamma97, true)
	step97(pix, stride, x0, x1, ch, -beta97, false)
	step97(pix, stride, x0, x1, ch, -alpha97, true)
}

// step97 applies one 9/7 lifting step to a column block: every odd row (odd)
// or every even row gains c times the sum of its two neighbours.
func step97(pix []float64, stride, x0, x1, ch int, c float64, odd bool) {
	sn := (ch + 1) / 2
	dn := ch / 2
	if odd {
		for i := 0; i < dn; i++ {
			rd := (2*i + 1) * stride
			rs0 := 2 * i * stride
			rs1 := 2 * clamp(i+1, sn) * stride
			for x := x0; x < x1; x++ {
				pix[rd+x] += c * (pix[rs0+x] + pix[rs1+x])
			}
		}
		return
	}
	for i := 0; i < sn; i++ {
		rs := 2 * i * stride
		rd0 := (2*clamp(i-1, dn) + 1) * stride
		rd1 := (2*clamp(i, dn) + 1) * stride
		for x := x0; x < x1; x++ {
			pix[rs+x] += c * (pix[rd0+x] + pix[rd1+x])
		}
	}
}

// scale97 multiplies a column block's even rows by even and its odd rows by
// odd.
func scale97(pix []float64, stride, x0, x1, ch int, even, odd float64) {
	for y := 0; y < ch; y++ {
		k := even
		if y%2 == 1 {
			k = odd
		}
		row := pix[y*stride+x0 : y*stride+x1]
		for x := range row {
			row[x] *= k
		}
	}
}
