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
//
// Every kernel runs all lifting steps of one level in a single sweep with
// the (de)interleave folded in: it reads the level's input from a scratch
// copy and writes the output layout directly. Step t of a sweep applies each
// lifting step to the latest sample whose neighbours are final for it (the
// lag schedule in DESIGN.md §1), so a sample gets the same operands and
// operations, in the same order, as step-at-a-time lifting would give it.
// Symmetric-extension clamps occur only in the edge steps at both ends.
//
// Every float product that feeds an addition is wrapped in float64(): the
// explicit rounding keeps the compiler from fusing it into an FMA on
// architectures that have one, so the bits match amd64 everywhere.
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
	rev53 = filter[int32]{fwd53, inv53, fwd53Cols, inv53Cols}
	irr97 = filter[float64]{fwd97, inv97, fwd97Cols, inv97Cols}
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

// lanes is one level's signal as w parallel lanes: row i of the output
// starts at dst[i*ds], row i of the input at src[i*ss]. A 1-D signal is one
// lane with both strides 1; a column block is w adjacent columns of the
// plane (dst) read from its packed scratch copy (src).
type lanes[T sample] struct {
	dst, src  []T
	ds, ss, w int
}

func (l lanes[T]) d(i int) []T { return l.dst[i*l.ds : i*l.ds+l.w] }
func (l lanes[T]) s(i int) []T { return l.src[i*l.ss : i*l.ss+l.w] }

// one views a 1-D signal as a single lane for the edge steps.
func one[T sample](dst, src []T) lanes[T] { return lanes[T]{dst, src, 1, 1, 1} }

// halves returns the lowpass and highpass counts of an n-sample signal.
func halves(n int) (sn, dn int) { return (n + 1) / 2, n / 2 }

// --- 5/3. Forward step t: predict d_t, update s_t. Inverse step t: update
// s_t, predict d_{t-1}. Every value is final once written.

// fwd53 lifts the interleaved signal src (even samples lowpass) into dst:
// lows first, then highs. len(dst) == len(src).
func fwd53(dst, src []int32) {
	n := len(src)
	if n < 2 {
		copy(dst, src)
		return
	}
	sn, dn := halves(n)
	l := one(dst, src)
	hi := max(1, min(dn, sn-1))
	fwd53Edge(l, sn, dn, 0)
	dp := dst[sn]
	for t := 1; t < hi; t++ {
		dN := src[2*t+1] - (src[2*t]+src[2*t+2])>>1
		dst[t] = src[2*t] + (dp+dN+2)>>2
		dst[sn+t] = dN
		dp = dN
	}
	for t := hi; t < sn; t++ {
		fwd53Edge(l, sn, dn, t)
	}
}

// fwd53Cols is fwd53 over every lane of l, n rows each.
func fwd53Cols(l lanes[int32], n int) {
	sn, dn := halves(n)
	hi := max(1, min(dn, sn-1))
	fwd53Edge(l, sn, dn, 0)
	for t := 1; t < hi; t++ {
		se, sd, se2 := l.s(2*t), l.s(2*t+1), l.s(2*t+2)
		st, dt, dm := l.d(t), l.d(sn+t), l.d(sn+t-1)
		for x := range st {
			dN := sd[x] - (se[x]+se2[x])>>1
			dt[x] = dN
			st[x] = se[x] + (dm[x]+dN+2)>>2
		}
	}
	for t := hi; t < sn; t++ {
		fwd53Edge(l, sn, dn, t)
	}
}

// fwd53Edge is forward step t with clamped neighbours.
func fwd53Edge(l lanes[int32], sn, dn, t int) {
	if t < dn {
		d, s0, s1, sd := l.d(sn+t), l.s(2*t), l.s(2*clamp(t+1, sn)), l.s(2*t+1)
		for x := range d {
			d[x] = sd[x] - (s0[x]+s1[x])>>1
		}
	}
	if t < sn {
		s, d0, d1, ss := l.d(t), l.d(sn+clamp(t-1, dn)), l.d(sn+clamp(t, dn)), l.s(2*t)
		for x := range s {
			s[x] = ss[x] + (d0[x]+d1[x]+2)>>2
		}
	}
}

// inv53 inverts fwd53: src holds lows then highs, dst gets the interleaved
// signal.
func inv53(dst, src []int32) {
	n := len(src)
	if n < 2 {
		copy(dst, src)
		return
	}
	sn, dn := halves(n)
	l := one(dst, src)
	hi := max(1, dn)
	inv53Edge(l, sn, dn, 0)
	sp := dst[0]
	for t := 1; t < hi; t++ {
		sN := src[t] - (src[sn+t-1]+src[sn+t]+2)>>2
		dst[2*t-1] = src[sn+t-1] + (sp+sN)>>1
		dst[2*t] = sN
		sp = sN
	}
	for t := hi; t <= sn; t++ {
		inv53Edge(l, sn, dn, t)
	}
}

// inv53Cols is inv53 over every lane of l, n rows each.
func inv53Cols(l lanes[int32], n int) {
	sn, dn := halves(n)
	hi := max(1, dn)
	inv53Edge(l, sn, dn, 0)
	for t := 1; t < hi; t++ {
		lo, hm, h := l.s(t), l.s(sn+t-1), l.s(sn+t)
		s, sm, dm := l.d(2*t), l.d(2*t-2), l.d(2*t-1)
		for x := range s {
			sN := lo[x] - (hm[x]+h[x]+2)>>2
			s[x] = sN
			dm[x] = hm[x] + (sm[x]+sN)>>1
		}
	}
	for t := hi; t <= sn; t++ {
		inv53Edge(l, sn, dn, t)
	}
}

// inv53Edge is inverse step t with clamped neighbours.
func inv53Edge(l lanes[int32], sn, dn, t int) {
	if t < sn {
		s, ls, h0, h1 := l.d(2*t), l.s(t), l.s(sn+clamp(t-1, dn)), l.s(sn+clamp(t, dn))
		for x := range s {
			s[x] = ls[x] - (h0[x]+h1[x]+2)>>2
		}
	}
	if j := t - 1; j >= 0 && j < dn {
		d, hs, s0, s1 := l.d(2*j+1), l.s(sn+j), l.d(2*j), l.d(2*clamp(j+1, sn))
		for x := range d {
			d[x] = hs[x] + (s0[x]+s1[x])>>1
		}
	}
}

// --- 9/7. Forward step t: α on d_t, β on s_t, γ on d_{t-1}, δ and the 1/K
// scale on s_{t-1}, the K scale on d_{t-2}; dst holds the partial values
// (lows at row i, highs at row sn+i). Inverse step t: scale d_t, scale and δ
// on s_t, γ on d_{t-1}, β on s_{t-1}, α on d_{t-2}; dst holds the partial
// values interleaved.

// fwd97 lifts the interleaved signal src into dst, lows then highs.
func fwd97(dst, src []float64) {
	n := len(src)
	if n < 2 {
		copy(dst, src)
		return
	}
	sn, dn := halves(n)
	l := one(dst, src)
	hi := max(2, min(dn, sn-1))
	fwd97Edge(l, sn, dn, 0)
	fwd97Edge(l, sn, dn, 1)
	if hi > 2 {
		// d1 = D1_{t-1}, s1 = S1_{t-1}, d2 = D2_{t-2}.
		d1, s1, d2 := dst[sn+1], dst[1], dst[sn]
		for t := 2; t < hi; t++ {
			e := src[2*t]
			dN := src[2*t+1] + float64(alpha97*(e+src[2*t+2]))
			sN := e + float64(beta97*(d1+dN))
			d1 += float64(gamma97 * (s1 + sN))
			s1 += float64(delta97 * (d2 + d1))
			dst[t-1] = s1 * (1 / k97)
			dst[sn+t-2] = d2 * k97
			d2, d1, s1 = d1, dN, sN
		}
		dst[sn+hi-1], dst[hi-1], dst[sn+hi-2] = d1, s1, d2
	}
	for t := hi; t < sn+2; t++ {
		fwd97Edge(l, sn, dn, t)
	}
}

// fwd97Cols is fwd97 over every lane of l, n rows each.
func fwd97Cols(l lanes[float64], n int) {
	sn, dn := halves(n)
	hi := max(2, min(dn, sn-1))
	fwd97Edge(l, sn, dn, 0)
	fwd97Edge(l, sn, dn, 1)
	for t := 2; t < hi; t++ {
		se, sd, se2 := l.s(2*t), l.s(2*t+1), l.s(2*t+2)
		dt, st, dm, sm, dm2 := l.d(sn+t), l.d(t), l.d(sn+t-1), l.d(t-1), l.d(sn+t-2)
		for x := range dt {
			e := se[x]
			dN := sd[x] + float64(alpha97*(e+se2[x]))
			dt[x] = dN
			sN := e + float64(beta97*(dm[x]+dN))
			st[x] = sN
			d := dm[x] + float64(gamma97*(sm[x]+sN))
			dm[x] = d
			sm[x] = (sm[x] + float64(delta97*(dm2[x]+d))) * (1 / k97)
			dm2[x] *= k97
		}
	}
	for t := hi; t < sn+2; t++ {
		fwd97Edge(l, sn, dn, t)
	}
}

// fwd97Edge is forward step t with clamped neighbours.
func fwd97Edge(l lanes[float64], sn, dn, t int) {
	if t < dn {
		d, s0, s1, sd := l.d(sn+t), l.s(2*t), l.s(2*clamp(t+1, sn)), l.s(2*t+1)
		for x := range d {
			d[x] = sd[x] + float64(alpha97*(s0[x]+s1[x]))
		}
	}
	if t < sn {
		s, d0, d1, ss := l.d(t), l.d(sn+clamp(t-1, dn)), l.d(sn+clamp(t, dn)), l.s(2*t)
		for x := range s {
			s[x] = ss[x] + float64(beta97*(d0[x]+d1[x]))
		}
	}
	if j := t - 1; j >= 0 && j < dn {
		lift(l.d(sn+j), l.d(j), l.d(clamp(j+1, sn)), gamma97)
	}
	if j := t - 1; j >= 0 && j < sn {
		s := l.d(j)
		lift(s, l.d(sn+clamp(j-1, dn)), l.d(sn+clamp(j, dn)), delta97)
		for x := range s {
			s[x] *= 1 / k97
		}
	}
	if j := t - 2; j >= 0 && j < dn {
		d := l.d(sn + j)
		for x := range d {
			d[x] *= k97
		}
	}
}

// inv97 inverts fwd97: src holds lows then highs, dst gets the interleaved
// signal.
func inv97(dst, src []float64) {
	n := len(src)
	if n < 2 {
		copy(dst, src)
		return
	}
	sn, dn := halves(n)
	l := one(dst, src)
	hi := max(2, dn)
	inv97Edge(l, sn, dn, 0)
	inv97Edge(l, sn, dn, 1)
	if hi > 2 {
		// d0 = D0_{t-1}, s1 = S1_{t-1}, d1 = D1_{t-2}, s2 = S2_{t-2}.
		d0, s1, d1, s2 := dst[3], dst[2], dst[1], dst[0]
		for t := 2; t < hi; t++ {
			dN := float64(src[sn+t] * (1 / k97))
			sN := float64(src[t]*k97) - float64(delta97*(d0+dN))
			d0 -= float64(gamma97 * (s1 + sN))
			s1 -= float64(beta97 * (d1 + d0))
			d1 -= float64(alpha97 * (s2 + s1))
			dst[2*t-2] = s1
			dst[2*t-3] = d1
			s2, d1, s1, d0 = s1, d0, sN, dN
		}
		dst[2*hi-1], dst[2*hi-2], dst[2*hi-3] = d0, s1, d1
	}
	for t := hi; t < sn+2; t++ {
		inv97Edge(l, sn, dn, t)
	}
}

// inv97Cols is inv97 over every lane of l, n rows each.
func inv97Cols(l lanes[float64], n int) {
	sn, dn := halves(n)
	hi := max(2, dn)
	inv97Edge(l, sn, dn, 0)
	inv97Edge(l, sn, dn, 1)
	for t := 2; t < hi; t++ {
		lo, h := l.s(t), l.s(sn+t)
		dt, st, dm, sm, dm2, sm2 := l.d(2*t+1), l.d(2*t), l.d(2*t-1), l.d(2*t-2), l.d(2*t-3), l.d(2*t-4)
		for x := range dt {
			dN := float64(h[x] * (1 / k97))
			dt[x] = dN
			sN := float64(lo[x]*k97) + float64((-delta97)*(dm[x]+dN))
			st[x] = sN
			d := dm[x] + float64((-gamma97)*(sm[x]+sN))
			dm[x] = d
			s := sm[x] + float64((-beta97)*(dm2[x]+d))
			sm[x] = s
			dm2[x] += float64((-alpha97) * (sm2[x] + s))
		}
	}
	for t := hi; t < sn+2; t++ {
		inv97Edge(l, sn, dn, t)
	}
}

// inv97Edge is inverse step t with clamped neighbours.
func inv97Edge(l lanes[float64], sn, dn, t int) {
	if t < dn {
		d, h := l.d(2*t+1), l.s(sn+t)
		for x := range d {
			d[x] = float64(h[x] * (1 / k97))
		}
	}
	if t < sn {
		s, lo := l.d(2*t), l.s(t)
		for x := range s {
			s[x] = float64(lo[x] * k97)
		}
		lift(s, l.d(2*clamp(t-1, dn)+1), l.d(2*clamp(t, dn)+1), -delta97)
	}
	if j := t - 1; j >= 0 && j < dn {
		lift(l.d(2*j+1), l.d(2*j), l.d(2*clamp(j+1, sn)), -gamma97)
	}
	if j := t - 1; j >= 0 && j < sn {
		lift(l.d(2*j), l.d(2*clamp(j-1, dn)+1), l.d(2*clamp(j, dn)+1), -beta97)
	}
	if j := t - 2; j >= 0 && j < dn {
		lift(l.d(2*j+1), l.d(2*j), l.d(2*clamp(j+1, sn)), -alpha97)
	}
}

// lift adds c times the sum of its two neighbour rows to every sample of x.
func lift(x, a, b []float64, c float64) {
	for i := range x {
		x[i] += float64(c * (a[i] + b[i]))
	}
}
