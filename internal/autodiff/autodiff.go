// Package autodiff implements tape-based reverse-mode automatic
// differentiation over dense matrices — the training engine behind the
// LSTM-PtrNet. A Tape records operations as they execute; Backward replays
// the tape in reverse, accumulating gradients into the underlying
// tensor.Mat buffers (shared with persistent parameters).
//
// The op set is exactly what the pointer network needs: affine maps,
// elementwise nonlinearities, concatenation/slicing for LSTM gates,
// row-stacking for encoder contexts, broadcast additions and masked
// softmax attention with log-probability picks for REINFORCE.
package autodiff

import (
	"fmt"
	"math"

	"respect/internal/tensor"
)

// Value is a handle to a node on a Tape.
type Value struct {
	t  *Tape
	id int
}

type node struct {
	out      *tensor.Mat
	backward func()
}

// Tape records a computation for reverse-mode differentiation. Create one
// per training step.
type Tape struct {
	nodes []node
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

func (t *Tape) push(out *tensor.Mat, backward func()) Value {
	out.EnsureGrad()
	t.nodes = append(t.nodes, node{out: out, backward: backward})
	return Value{t: t, id: len(t.nodes) - 1}
}

func (v Value) mat() *tensor.Mat { return v.t.nodes[v.id].out }

// Shape returns (rows, cols).
func (v Value) Shape() (int, int) {
	m := v.mat()
	return m.Rows, m.Cols
}

// Data exposes the forward values (do not mutate).
func (v Value) Data() []float64 { return v.mat().Data }

// Param registers a persistent parameter matrix on the tape. The tape
// shares the matrix's Data and Grad buffers, so Backward accumulates into
// the optimizer-visible gradient.
func (t *Tape) Param(m *tensor.Mat) Value {
	m.EnsureGrad()
	return t.push(m, nil)
}

// Input registers a constant input (no gradient propagated out).
func (t *Tape) Input(m *tensor.Mat) Value {
	return t.push(m, nil)
}

// InputVec registers a 1×n constant row vector copied from data.
func (t *Tape) InputVec(data []float64) Value {
	return t.Input(tensor.FromSlice(1, len(data), data))
}

// Backward seeds v (which must be 1×1) with gradient 1 and propagates the
// whole tape backwards.
func (v Value) Backward() {
	m := v.mat()
	if m.Rows != 1 || m.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward on %dx%d value", m.Rows, m.Cols))
	}
	v.BackwardWithSeed(1)
}

// BackwardWithSeed seeds a 1×1 value with the given gradient — used by
// REINFORCE where the scalar log-probability is weighted by the advantage.
func (v Value) BackwardWithSeed(seed float64) {
	m := v.mat()
	if m.Rows != 1 || m.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward on %dx%d value", m.Rows, m.Cols))
	}
	m.Grad[0] += seed
	t := v.t
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if t.nodes[i].backward != nil {
			t.nodes[i].backward()
		}
	}
}

func sameTape(a, b Value) *Tape {
	if a.t != b.t {
		panic("autodiff: values from different tapes")
	}
	return a.t
}

// MatMul returns a·b.
func MatMul(a, b Value) Value {
	t := sameTape(a, b)
	am, bm := a.mat(), b.mat()
	out := tensor.New(am.Rows, bm.Cols)
	tensor.MatMulInto(out, am, bm)
	return t.push(out, func() {
		// dA += dOut·Bᵀ ; dB += Aᵀ·dOut
		for i := 0; i < am.Rows; i++ {
			for k := 0; k < am.Cols; k++ {
				var s float64
				br := bm.Data[k*bm.Cols : (k+1)*bm.Cols]
				gr := out.Grad[i*out.Cols : (i+1)*out.Cols]
				for j := range br {
					s += gr[j] * br[j]
				}
				am.Grad[i*am.Cols+k] += s
			}
		}
		for k := 0; k < bm.Rows; k++ {
			for j := 0; j < bm.Cols; j++ {
				var s float64
				for i := 0; i < am.Rows; i++ {
					s += am.Data[i*am.Cols+k] * out.Grad[i*out.Cols+j]
				}
				bm.Grad[k*bm.Cols+j] += s
			}
		}
	})
}

// Add returns a + b (same shape).
func Add(a, b Value) Value {
	t := sameTape(a, b)
	am, bm := a.mat(), b.mat()
	checkSameShape("Add", am, bm)
	out := tensor.New(am.Rows, am.Cols)
	for i := range out.Data {
		out.Data[i] = am.Data[i] + bm.Data[i]
	}
	return t.push(out, func() {
		for i := range out.Grad {
			am.Grad[i] += out.Grad[i]
			bm.Grad[i] += out.Grad[i]
		}
	})
}

// Mul returns the elementwise (Hadamard) product a ∘ b.
func Mul(a, b Value) Value {
	t := sameTape(a, b)
	am, bm := a.mat(), b.mat()
	checkSameShape("Mul", am, bm)
	out := tensor.New(am.Rows, am.Cols)
	for i := range out.Data {
		out.Data[i] = am.Data[i] * bm.Data[i]
	}
	return t.push(out, func() {
		for i := range out.Grad {
			am.Grad[i] += out.Grad[i] * bm.Data[i]
			bm.Grad[i] += out.Grad[i] * am.Data[i]
		}
	})
}

// Tanh applies tanh elementwise.
func Tanh(a Value) Value {
	am := a.mat()
	out := tensor.New(am.Rows, am.Cols)
	for i, v := range am.Data {
		out.Data[i] = math.Tanh(v)
	}
	return a.t.push(out, func() {
		for i := range out.Grad {
			am.Grad[i] += out.Grad[i] * (1 - out.Data[i]*out.Data[i])
		}
	})
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a Value) Value {
	am := a.mat()
	out := tensor.New(am.Rows, am.Cols)
	for i, v := range am.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return a.t.push(out, func() {
		for i := range out.Grad {
			am.Grad[i] += out.Grad[i] * out.Data[i] * (1 - out.Data[i])
		}
	})
}

// Slice returns columns [lo, hi) of a row vector (1×n).
func Slice(a Value, lo, hi int) Value {
	am := a.mat()
	if am.Rows != 1 || lo < 0 || hi > am.Cols || lo >= hi {
		panic(fmt.Sprintf("autodiff: Slice[%d:%d] of 1x%d", lo, hi, am.Cols))
	}
	out := tensor.New(1, hi-lo)
	copy(out.Data, am.Data[lo:hi])
	return a.t.push(out, func() {
		for i := range out.Grad {
			am.Grad[lo+i] += out.Grad[i]
		}
	})
}

// StackRows stacks n equal-width row vectors into an n×d matrix.
func StackRows(rows []Value) Value {
	if len(rows) == 0 {
		panic("autodiff: StackRows of nothing")
	}
	t := rows[0].t
	d := rows[0].mat().Cols
	out := tensor.New(len(rows), d)
	mats := make([]*tensor.Mat, len(rows))
	for i, r := range rows {
		m := r.mat()
		if m.Rows != 1 || m.Cols != d {
			panic("autodiff: StackRows shape mismatch")
		}
		mats[i] = m
		copy(out.Data[i*d:(i+1)*d], m.Data)
	}
	return t.push(out, func() {
		for i, m := range mats {
			for j := 0; j < d; j++ {
				m.Grad[j] += out.Grad[i*d+j]
			}
		}
	})
}

// AddRowBroadcast adds row vector b (1×d) to every row of a (n×d).
func AddRowBroadcast(a, b Value) Value {
	t := sameTape(a, b)
	am, bm := a.mat(), b.mat()
	if bm.Rows != 1 || bm.Cols != am.Cols {
		panic(fmt.Sprintf("autodiff: broadcast 1x%d over %dx%d", bm.Cols, am.Rows, am.Cols))
	}
	out := tensor.New(am.Rows, am.Cols)
	for i := 0; i < am.Rows; i++ {
		for j := 0; j < am.Cols; j++ {
			out.Data[i*am.Cols+j] = am.Data[i*am.Cols+j] + bm.Data[j]
		}
	}
	return t.push(out, func() {
		for i := 0; i < am.Rows; i++ {
			for j := 0; j < am.Cols; j++ {
				g := out.Grad[i*am.Cols+j]
				am.Grad[i*am.Cols+j] += g
				bm.Grad[j] += g
			}
		}
	})
}

// Transpose returns aᵀ.
func Transpose(a Value) Value {
	am := a.mat()
	out := tensor.New(am.Cols, am.Rows)
	for i := 0; i < am.Rows; i++ {
		for j := 0; j < am.Cols; j++ {
			out.Data[j*am.Rows+i] = am.Data[i*am.Cols+j]
		}
	}
	return a.t.push(out, func() {
		for i := 0; i < am.Rows; i++ {
			for j := 0; j < am.Cols; j++ {
				am.Grad[i*am.Cols+j] += out.Grad[j*am.Rows+i]
			}
		}
	})
}

// SoftmaxMasked computes softmax over a column vector (n×1), forcing the
// probability of masked-out entries to zero (the paper's −∞ logit rule for
// already-scheduled nodes). mask[i] == true means entry i is allowed.
func SoftmaxMasked(a Value, mask []bool) Value {
	am := a.mat()
	if am.Cols != 1 || len(mask) != am.Rows {
		panic(fmt.Sprintf("autodiff: SoftmaxMasked on %dx%d with %d mask bits", am.Rows, am.Cols, len(mask)))
	}
	out := tensor.New(am.Rows, 1)
	maxv := math.Inf(-1)
	for i, v := range am.Data {
		if mask[i] && v > maxv {
			maxv = v
		}
	}
	if math.IsInf(maxv, -1) {
		panic("autodiff: SoftmaxMasked with empty mask")
	}
	var sum float64
	for i, v := range am.Data {
		if mask[i] {
			out.Data[i] = math.Exp(v - maxv)
			sum += out.Data[i]
		}
	}
	for i := range out.Data {
		out.Data[i] /= sum
	}
	maskCopy := append([]bool(nil), mask...)
	return a.t.push(out, func() {
		// dL/dx_i = y_i (g_i − Σ_j g_j y_j) over allowed entries.
		var dot float64
		for i := range out.Data {
			dot += out.Grad[i] * out.Data[i]
		}
		for i := range out.Data {
			if maskCopy[i] {
				am.Grad[i] += out.Data[i] * (out.Grad[i] - dot)
			}
		}
	})
}

// LogPick returns log(p[idx]) of a probability column vector as a 1×1
// value — the REINFORCE log-probability of the chosen node.
func LogPick(p Value, idx int) Value {
	pm := p.mat()
	if pm.Cols != 1 || idx < 0 || idx >= pm.Rows {
		panic(fmt.Sprintf("autodiff: LogPick(%d) on %dx%d", idx, pm.Rows, pm.Cols))
	}
	out := tensor.New(1, 1)
	v := pm.Data[idx]
	const floor = 1e-300
	if v < floor {
		v = floor
	}
	out.Data[0] = math.Log(v)
	return p.t.push(out, func() {
		pm.Grad[idx] += out.Grad[0] / v
	})
}

// Sum returns the sum of all elements as a 1×1 value.
func Sum(a Value) Value {
	am := a.mat()
	out := tensor.New(1, 1)
	for _, v := range am.Data {
		out.Data[0] += v
	}
	return a.t.push(out, func() {
		for i := range am.Grad {
			am.Grad[i] += out.Grad[0]
		}
	})
}

func checkSameShape(op string, a, b *tensor.Mat) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("autodiff: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
