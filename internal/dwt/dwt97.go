package dwt

import (
	"pj2k/internal/raster"
)

// FPlane is a float64 sample plane used by the irreversible 9/7 path.
type FPlane struct {
	Width  int
	Height int
	Stride int
	Data   []float64
}

// NewFPlane allocates a dense float plane.
func NewFPlane(w, h int) *FPlane {
	return &FPlane{Width: w, Height: h, Stride: w, Data: make([]float64, w*h)}
}

// FromImage converts an integer image into a float plane (no level shift).
func FromImage(im *raster.Image) *FPlane {
	return FromImageReuse(nil, im)
}

// FromImageReuse is FromImage writing into p when its backing storage is
// large enough, so pooled callers avoid reallocating the plane every encode.
// A nil (or too small) p is replaced by a fresh plane; the used plane is
// returned either way.
func FromImageReuse(p *FPlane, im *raster.Image) *FPlane {
	if p == nil || cap(p.Data) < im.Width*im.Height {
		p = NewFPlane(im.Width, im.Height)
	} else {
		p.Width, p.Height, p.Stride = im.Width, im.Height, im.Width
		p.Data = p.Data[:im.Width*im.Height]
	}
	for y := 0; y < im.Height; y++ {
		row := im.Row(y)
		out := p.Data[y*p.Stride : y*p.Stride+p.Width]
		for x, v := range row {
			out[x] = float64(v)
		}
	}
	return p
}

// Forward97 applies `levels` levels of the irreversible 9/7 transform in
// place, producing the Mallat layout.
func Forward97(p *FPlane, levels int, st Strategy) {
	for l := 0; l < levels; l++ {
		cw, ch := levelDims(p.Width, p.Height, l)
		horizontalLevel97(p, cw, ch, st, true)
		verticalLevel97(p, cw, ch, st, true)
	}
}

// Inverse97 inverts Forward97.
func Inverse97(p *FPlane, levels int, st Strategy) {
	for l := levels - 1; l >= 0; l-- {
		cw, ch := levelDims(p.Width, p.Height, l)
		verticalLevel97(p, cw, ch, st, false)
		horizontalLevel97(p, cw, ch, st, false)
	}
}

func horizontalLevel97(p *FPlane, cw, ch int, st Strategy, fwd bool) {
	if cw < 2 {
		return
	}
	st.forID(ch, func(worker, lo, hi int) {
		tmp := st.Scratch.f64(worker, 0, cw)
		for y := lo; y < hi; y++ {
			row := p.Data[y*p.Stride : y*p.Stride+cw]
			if fwd {
				lift97Fwd(row)
				deinterleave97(row, tmp)
				copy(row, tmp)
			} else {
				interleave97(row, tmp)
				copy(row, tmp)
				lift97Inv(row)
			}
		}
	})
}

func verticalLevel97(p *FPlane, cw, ch int, st Strategy, fwd bool) {
	if ch < 2 {
		return
	}
	switch st.VertMode {
	case VertNaive:
		st.forID(cw, func(worker, lo, hi int) {
			col := st.Scratch.f64(worker, 0, ch)
			buf := st.Scratch.f64(worker, 1, ch)
			for x := lo; x < hi; x++ {
				for y := 0; y < ch; y++ {
					col[y] = p.Data[y*p.Stride+x]
				}
				if fwd {
					lift97Fwd(col)
					deinterleave97(col, buf)
				} else {
					interleave97(col, buf)
					lift97Inv(buf)
				}
				for y := 0; y < ch; y++ {
					p.Data[y*p.Stride+x] = buf[y]
				}
			}
		})
	case VertBlocked:
		// Block bi covers columns [bi*width, min((bi+1)*width, cw)): computed
		// arithmetically instead of materializing a range slice per level.
		width := st.blockWidth()
		nblocks := (cw + width - 1) / width
		bw := width
		if bw > cw {
			bw = cw
		}
		st.forID(nblocks, func(worker, lo, hi int) {
			tmp := st.Scratch.f64(worker, 0, bw*ch)
			for bi := lo; bi < hi; bi++ {
				x0 := bi * width
				x1 := min(x0+width, cw)
				if fwd {
					vertBlockFwd97(p, x0, x1, ch, tmp)
				} else {
					vertBlockInv97(p, x0, x1, ch, tmp)
				}
			}
		})
	default:
		panic("dwt: unknown vertical mode")
	}
}

// liftRows97 applies one lifting step target[i] += c*(n0[i]+n1[i]) row-wise
// over the column block, for all step targets described by rows.
func vertBlockFwd97(p *FPlane, x0, x1, ch int, tmp []float64) {
	data, stride := p.Data, p.Stride
	sn := (ch + 1) / 2
	dn := ch / 2
	if dn == 0 {
		return
	}
	step := func(c float64, odd bool) {
		if odd { // update odd rows from even neighbours
			for i := 0; i < dn; i++ {
				rd := (2*i + 1) * stride
				rs0 := 2 * i * stride
				rs1 := 2 * clamp(i+1, sn) * stride
				for x := x0; x < x1; x++ {
					data[rd+x] += c * (data[rs0+x] + data[rs1+x])
				}
			}
		} else { // update even rows from odd neighbours
			for i := 0; i < sn; i++ {
				rs := 2 * i * stride
				rd0 := (2*clamp(i-1, dn) + 1) * stride
				rd1 := (2*clamp(i, dn) + 1) * stride
				for x := x0; x < x1; x++ {
					data[rs+x] += c * (data[rd0+x] + data[rd1+x])
				}
			}
		}
	}
	step(alpha97, true)
	step(beta97, false)
	step(gamma97, true)
	step(delta97, false)
	for i := 0; i < sn; i++ {
		r := 2 * i * stride
		for x := x0; x < x1; x++ {
			data[r+x] *= 1 / k97
		}
	}
	for i := 0; i < dn; i++ {
		r := (2*i + 1) * stride
		for x := x0; x < x1; x++ {
			data[r+x] *= k97
		}
	}
	deinterleaveRows97(p, x0, x1, ch, tmp)
}

func vertBlockInv97(p *FPlane, x0, x1, ch int, tmp []float64) {
	sn := (ch + 1) / 2
	dn := ch / 2
	if dn == 0 {
		return
	}
	interleaveRows97(p, x0, x1, ch, tmp)
	data, stride := p.Data, p.Stride
	for i := 0; i < sn; i++ {
		r := 2 * i * stride
		for x := x0; x < x1; x++ {
			data[r+x] *= k97
		}
	}
	for i := 0; i < dn; i++ {
		r := (2*i + 1) * stride
		for x := x0; x < x1; x++ {
			data[r+x] *= 1 / k97
		}
	}
	step := func(c float64, odd bool) {
		if odd {
			for i := 0; i < dn; i++ {
				rd := (2*i + 1) * stride
				rs0 := 2 * i * stride
				rs1 := 2 * clamp(i+1, sn) * stride
				for x := x0; x < x1; x++ {
					data[rd+x] -= c * (data[rs0+x] + data[rs1+x])
				}
			}
		} else {
			for i := 0; i < sn; i++ {
				rs := 2 * i * stride
				rd0 := (2*clamp(i-1, dn) + 1) * stride
				rd1 := (2*clamp(i, dn) + 1) * stride
				for x := x0; x < x1; x++ {
					data[rs+x] -= c * (data[rd0+x] + data[rd1+x])
				}
			}
		}
	}
	step(delta97, false)
	step(gamma97, true)
	step(beta97, false)
	step(alpha97, true)
}

func deinterleaveRows97(p *FPlane, x0, x1, ch int, tmp []float64) {
	w := x1 - x0
	sn := (ch + 1) / 2
	for i := 0; i < sn; i++ {
		copy(tmp[i*w:(i+1)*w], p.Data[2*i*p.Stride+x0:2*i*p.Stride+x1])
	}
	for i := 0; i < ch/2; i++ {
		copy(tmp[(sn+i)*w:(sn+i+1)*w], p.Data[(2*i+1)*p.Stride+x0:(2*i+1)*p.Stride+x1])
	}
	for y := 0; y < ch; y++ {
		copy(p.Data[y*p.Stride+x0:y*p.Stride+x1], tmp[y*w:(y+1)*w])
	}
}

func interleaveRows97(p *FPlane, x0, x1, ch int, tmp []float64) {
	w := x1 - x0
	sn := (ch + 1) / 2
	for y := 0; y < ch; y++ {
		copy(tmp[y*w:(y+1)*w], p.Data[y*p.Stride+x0:y*p.Stride+x1])
	}
	for i := 0; i < sn; i++ {
		copy(p.Data[2*i*p.Stride+x0:2*i*p.Stride+x1], tmp[i*w:(i+1)*w])
	}
	for i := 0; i < ch/2; i++ {
		copy(p.Data[(2*i+1)*p.Stride+x0:(2*i+1)*p.Stride+x1], tmp[(sn+i)*w:(sn+i+1)*w])
	}
}
