package ptrnet

import (
	"math"

	"respect/internal/nn"
)

// The numeric kernels of the forward-only path. The tape path (Decode)
// shares none of them and is the oracle the tests compare against.
//
// Four of them run the inner loops and exist twice: addMatVec, axpy,
// scoreExp and expv are defined here in portable Go, which fixes the order
// of IEEE operations behind every output element, and implemented again in
// kernel_amd64.s on 256-bit vectors, four elements per instruction, each
// lane doing the same operations in the same order (a multiply then an
// add, never a fused one: amd64 Go does not fuse either). Both forms
// return the same bits for every input; useAVX2, set once from CPUID,
// picks between them, and the tests flip it to hold one to the other. Each
// assembly routine has exactly one caller, the Go function of the same
// name, which establishes every length with ordinary slice expressions
// and keeps the elements past the last multiple of four for itself.

// KernelPath names the form of the four kernels this process runs: "avx2"
// or "portable".
func KernelPath() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// addMatVec accumulates z += xᵀ·W for a row-major len(x)×len(z) matrix,
// four rows per pass over z. Every z[j] receives its products in row order
// (z[j] + x₀w₀ⱼ + x₁w₁ⱼ + …), so the result is bit-identical to adding one
// row at a time; the blocking only saves three of every four loads and
// stores of z.
func addMatVec(z, x, w []float64) {
	n := len(z)
	w = w[:len(x)*n]
	k, j0 := len(x)&^3, 0
	if useAVX2 {
		j0 = n &^ 3
		matvecAVX2(z, x[:k], w)
	}
	if j0 < n {
		matvecGo(z, x[:k], w, j0)
	}
	for ; k < len(x); k++ {
		axpy(z, w[k*n:(k+1)*n], x[k])
	}
}

// matvecGo is addMatVec for columns j0 and up and a whole number of
// four-row blocks: everything on the portable path, the columns past the
// last multiple of four beside the assembly.
func matvecGo(z, x, w []float64, j0 int) {
	n, zt := len(z), z[j0:]
	for r := 0; r+4 <= len(x); r += 4 {
		x0, x1, x2, x3 := x[r], x[r+1], x[r+2], x[r+3]
		rows := w[r*n+j0 : (r+4)*n]
		w0, w1, w2, w3 := rows[:len(zt)], rows[n:][:len(zt)], rows[2*n:][:len(zt)], rows[3*n:][:len(zt)]
		for j, t := range zt {
			t += x0 * w0[j]
			t += x1 * w1[j]
			t += x2 * w2[j]
			t += x3 * w3[j]
			zt[j] = t
		}
	}
}

// axpy accumulates z[j] += a·row[j].
func axpy(z, row []float64, a float64) {
	row = row[:len(z)]
	j := 0
	if useAVX2 {
		j = len(z) &^ 3
		axpyAVX2(z[:j], row[:j], a)
	}
	for ; j < len(z); j++ {
		z[j] += a * row[j]
	}
}

// The constants of expv: Cephes' exp for IEEE doubles (range reduction by
// a two-part ln 2, then a rational approximation of degree 2 over degree 3
// in r²) with a clamp that keeps every result finite and normal.
const (
	expClamp = 708                 // e^{±708} ≈ 10^{±307.5}: finite, normal
	expLog2e = 1.4426950408889634  // log₂ e
	expRound = 3 << 51             // 1.5·2⁵²: adding it rounds to an integer held in the low mantissa bits
	expLn2Hi = 6.93145751953125e-1 // ln 2 to 16 bits, so k·expLn2Hi is exact
	expLn2Lo = 1.42860682030941723212e-6
	expP0    = 1.26177193074810590878e-4
	expP1    = 3.02994407707441961300e-2 // P(s) = (expP0·s + expP1)·s + 1
	expQ0    = 3.00198505138664455042e-6
	expQ1    = 2.52448340349684104192e-3
	expQ2    = 2.27265548208155028766e-1 // Q(s) = ((expQ0·s + expQ1)·s + expQ2)·s + 2
)

// expv replaces every xs[i] by e^{xs[i]}, the one exponential of the
// forward-only path: sigmoid, tanh and softmax are all taken through it.
// The input is clamped to ±expClamp, so the result is finite, normal and
// non-zero for every number (±Inf included); NaN stays NaN. Inside the
// clamp it is within 2 ulp of math.Exp.
func expv(xs []float64) {
	i := 0
	if useAVX2 {
		i = len(xs) &^ 3
		expvAVX2(xs[:i])
	}
	for ; i < len(xs); i++ {
		xs[i] = exp1(xs[i])
	}
}

// exp1 is expv's definition for one element; the assembly does the same
// operations on four.
func exp1(x float64) float64 {
	if x > expClamp { // a NaN fails both comparisons and goes through
		x = expClamp
	} else if x < -expClamp {
		x = -expClamp
	}
	// k = round(x·log₂e); t's low mantissa bits hold it in two's complement.
	t := x*expLog2e + expRound
	k := t - expRound
	r := x - k*expLn2Hi
	r -= k * expLn2Lo
	// e^r = 1 + 2·rP(r²)/(Q(r²) − rP(r²))
	s := r * r
	p := ((expP0*s+expP1)*s + 1) * r
	q := ((expQ0*s+expQ1)*s+expQ2)*s + 2
	e := p / (q - p)
	// 2ᵏ is built in the exponent bits; k is within ±1022, and a NaN times
	// whatever these bits hold is a NaN.
	scale := math.Float64frombits(math.Float64bits(t)<<52 + 0x3FF<<52)
	return (1 + (e + e)) * scale
}

// lstmStep advances (h, c) in place by one step of cell on input x; z is
// 4·hidden scratch for the gate pre-activations. The gates are 1/(1+e^{−z})
// and tanh(x) = 1 − 2/(e^{2x}+1), the identity the attention heads use,
// with the exponentials taken in two expv calls: the four gates, then the
// new cell values.
func lstmStep(cell *nn.LSTMCell, x, h, c, z []float64) {
	hd := len(h)
	copy(z, cell.B.Data)
	addMatVec(z, x, cell.Wx.Data)
	addMatVec(z, h, cell.Wh.Data)
	zi, zf, zg, zo := z[:hd], z[hd:][:hd], z[2*hd:][:hd], z[3*hd:][:hd]
	c = c[:hd]
	for j := range h {
		zi[j], zf[j], zg[j], zo[j] = -zi[j], -zf[j], 2*zg[j], -zo[j]
	}
	expv(z[:4*hd])
	for j := range h {
		i := 1 / (1 + zi[j])
		f := 1 / (1 + zf[j])
		g := 1 - 2/(zg[j]+1)
		c[j] = f*c[j] + i*g
		zi[j] = 2 * c[j]
	}
	expv(zi)
	for j := range h {
		o := 1 / (1 + zo[j])
		h[j] = o * (1 - 2/(zi[j]+1))
	}
}

// expSafe bounds the magnitudes scoreExp accepts: for |a|, |q| ≤ expSafe
// both e^{2a} and e^{2q} are finite, normal and non-zero (e^{±700} ≈
// 10^{±304}), so their product is a number, never Inf·0.
const expSafe = 350

// scoreExp returns Σⱼ v[j]·tanh(a[j]+q[j]) given ea[j] = e^{2·a[j]} and
// eq[j] = e^{2·q[j]}, through tanh(a+q) = 1 − 2/(e^{2a}·e^{2q} + 1): one
// multiply, one add and one divide per term where math.Tanh costs a
// polynomial and an exponential. Callers must keep every |a[j]| and
// |q[j]| at or below expSafe (see the constant); inside that range a
// product that overflows or underflows still lands on the correct ±1, and
// each term is within a few ulp of 1 of the math.Tanh form (the tests
// hold the sum to 1e-12). Outside it use scoreTanh. The terms are summed in
// four interleaved lanes, term j into lane j mod 4, combined as
// (l0+l1)+(l2+l3) before the terms past the last multiple of four are
// added: the order a four-wide vector sums in.
func scoreExp(v, ea, eq []float64) float64 {
	v, eq = v[:len(ea)], eq[:len(ea)]
	j := len(ea) &^ 3
	var s float64
	if useAVX2 {
		s = scoreExpAVX2(v[:j], ea[:j], eq[:j])
	} else {
		var l0, l1, l2, l3 float64
		for i := 0; i < j; i += 4 {
			l0 += v[i] * (1 - 2/(ea[i]*eq[i]+1))
			l1 += v[i+1] * (1 - 2/(ea[i+1]*eq[i+1]+1))
			l2 += v[i+2] * (1 - 2/(ea[i+2]*eq[i+2]+1))
			l3 += v[i+3] * (1 - 2/(ea[i+3]*eq[i+3]+1))
		}
		s = (l0 + l1) + (l2 + l3)
	}
	for ; j < len(ea); j++ {
		s += v[j] * (1 - 2/(ea[j]*eq[j]+1))
	}
	return s
}

// scoreTanh is the direct form Σⱼ v[j]·tanh(a[j]+q[j]), total over every
// float64 input.
func scoreTanh(v, a, q []float64) float64 {
	v, q = v[:len(a)], q[:len(a)]
	var s float64
	for j, av := range a {
		s += v[j] * math.Tanh(av+q[j])
	}
	return s
}

// attTable is one attention head's W1·E term, len(raw)/h rows of width h,
// in the two forms the scores are computed from.
type attTable struct {
	raw   []float64 // W1·E
	exp   []float64 // e^{2·W1·E}, filled when expOK
	expOK bool      // every |raw| entry is within expSafe
}

// factor derives exp and expOK from raw.
func (t *attTable) factor() {
	if t.expOK = withinExpSafe(t.raw); !t.expOK {
		return
	}
	exp := grow(&t.exp, len(t.raw))
	for i, a := range t.raw {
		exp[i] = 2 * a
	}
	expv(exp)
}

// scores fills p[k] = Σⱼ v[j]·tanh(row_{live[k]}[j] + q[j]) for the
// projected query q, which it overwrites. It takes the exp-factored form
// when the whole table and the whole query are within expSafe and the
// math.Tanh form otherwise, so it is total.
func (t *attTable) scores(v, q []float64, live []int, p []float64) {
	h := len(q)
	if t.expOK && withinExpSafe(q) {
		for j, x := range q {
			q[j] = 2 * x
		}
		expv(q)
		for k, node := range live {
			p[k] = scoreExp(v, t.exp[node*h:(node+1)*h], q)
		}
		return
	}
	for k, node := range live {
		p[k] = scoreTanh(v, t.raw[node*h:(node+1)*h], q)
	}
}

// withinExpSafe reports whether every |x| ≤ expSafe; NaN is not.
func withinExpSafe(xs []float64) bool {
	for _, x := range xs {
		if !(math.Abs(x) <= expSafe) {
			return false
		}
	}
	return true
}

// softmax normalizes scores in place.
func softmax(scores []float64) {
	maxv := math.Inf(-1)
	for _, s := range scores {
		if s > maxv {
			maxv = s
		}
	}
	for i, s := range scores {
		scores[i] = s - maxv
	}
	expv(scores)
	var sum float64
	for _, e := range scores {
		sum += e
	}
	for i := range scores {
		scores[i] /= sum
	}
}

// argmax returns the position of the first largest entry of a non-empty
// slice (position 0 when nothing compares, as with NaN).
func argmax(p []float64) int {
	best := 0
	for k := 1; k < len(p); k++ {
		if p[k] > p[best] {
			best = k
		}
	}
	return best
}
