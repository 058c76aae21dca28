package ptrnet

import (
	"math"

	"respect/internal/nn"
)

// The numeric kernels of the forward-only path. The tape path (Decode)
// shares none of them and is the oracle the tests compare against.

// addMatVec accumulates z += xᵀ·W for a row-major len(x)×len(z) matrix,
// four rows per pass over z. Every z[j] still receives its products in
// row order (z[j] + x₀w₀ⱼ + x₁w₁ⱼ + …), and amd64 Go does not fuse the
// multiply-add, so the result is bit-identical to adding one row at a
// time; the blocking only saves three of every four loads and stores of z.
func addMatVec(z, x, w []float64) {
	n := len(z)
	w = w[:len(x)*n]
	k := 0
	for ; k+4 <= len(x); k += 4 {
		x0, x1, x2, x3 := x[k], x[k+1], x[k+2], x[k+3]
		rows := w[k*n : (k+4)*n]
		w0, w1, w2, w3 := rows[:n], rows[n:][:n], rows[2*n:][:n], rows[3*n:][:n]
		for j, t := range z {
			t += x0 * w0[j]
			t += x1 * w1[j]
			t += x2 * w2[j]
			t += x3 * w3[j]
			z[j] = t
		}
	}
	for ; k < len(x); k++ {
		xv := x[k]
		row := w[k*n : (k+1)*n]
		for j, wv := range row {
			z[j] += xv * wv
		}
	}
}

// lstmStep advances (h, c) in place by one step of cell on input x; z is
// 4·hidden scratch for the gate pre-activations.
func lstmStep(cell *nn.LSTMCell, x, h, c, z []float64) {
	hd := len(h)
	copy(z, cell.B.Data)
	addMatVec(z, x, cell.Wx.Data)
	addMatVec(z, h, cell.Wh.Data)
	zi, zf, zg, zo := z[:hd], z[hd:][:hd], z[2*hd:][:hd], z[3*hd:][:hd]
	c = c[:hd]
	for j := range h {
		i := sigmoid(zi[j])
		f := sigmoid(zf[j])
		g := math.Tanh(zg[j])
		o := sigmoid(zo[j])
		c[j] = f*c[j] + i*g
		h[j] = o * math.Tanh(c[j])
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

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
// hold the sum to 1e-12). Outside it use scoreTanh.
func scoreExp(v, ea, eq []float64) float64 {
	v, eq = v[:len(ea)], eq[:len(ea)]
	var s float64
	for j, a := range ea {
		s += v[j] * (1 - 2/(a*eq[j]+1))
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
		exp[i] = math.Exp(2 * a)
	}
}

// scores fills p[k] = Σⱼ v[j]·tanh(row_{live[k]}[j] + q[j]) for the
// projected query q, which it overwrites. It takes the exp-factored form
// when the whole table and the whole query are within expSafe and the
// math.Tanh form otherwise, so it is total.
func (t *attTable) scores(v, q []float64, live []int, p []float64) {
	h := len(q)
	if t.expOK && withinExpSafe(q) {
		for j, x := range q {
			q[j] = math.Exp(2 * x)
		}
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
	var sum float64
	for i, s := range scores {
		e := math.Exp(s - maxv)
		scores[i] = e
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
