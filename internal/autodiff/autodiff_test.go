package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"respect/internal/tensor"
)

func TestMatMulForward(t *testing.T) {
	tp := NewTape()
	a := tp.Input(tensor.FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6}))
	b := tp.Input(tensor.FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12}))
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestBackwardSimple(t *testing.T) {
	// f = sum(a ∘ a): df/da = 2a.
	m := tensor.FromSlice(1, 3, []float64{1, -2, 3})
	tp := NewTape()
	a := tp.Param(m)
	out := Sum(Mul(a, a))
	out.Backward()
	want := []float64{2, -4, 6}
	for i, g := range m.Grad {
		if math.Abs(g-want[i]) > 1e-12 {
			t.Fatalf("grad[%d] = %v, want %v", i, g, want[i])
		}
	}
}

func TestGradCheckDenseChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w1 := tensor.Xavier(3, 4, rng)
	w2 := tensor.Xavier(4, 1, rng)
	b := tensor.Xavier(1, 4, rng)
	x := tensor.FromSlice(1, 3, []float64{0.3, -0.7, 1.1})
	worst, err := GradCheck([]*tensor.Mat{w1, w2, b}, func(tp *Tape) Value {
		xv := tp.Input(x)
		h := Tanh(Add(MatMul(xv, tp.Param(w1)), tp.Param(b)))
		return Sum(Sigmoid(MatMul(h, tp.Param(w2))))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst rel err %g", worst)
}

func TestGradCheckAttentionPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := tensor.Xavier(5, 4, rng) // encoder contexts as a parameter
	w1 := tensor.Xavier(4, 4, rng)
	w2 := tensor.Xavier(4, 4, rng)
	v := tensor.Xavier(4, 1, rng)
	d := tensor.Xavier(1, 4, rng)
	mask := []bool{true, false, true, true, false}
	worst, err := GradCheck([]*tensor.Mat{e, w1, w2, v, d}, func(tp *Tape) Value {
		ev := tp.Param(e)
		s := Tanh(AddRowBroadcast(MatMul(ev, tp.Param(w1)), MatMul(tp.Param(d), tp.Param(w2))))
		scores := MatMul(s, tp.Param(v))
		p := SoftmaxMasked(scores, mask)
		// Glimpse-weighted context then a log-pick: the full pointer path.
		g := MatMul(Transpose(p), ev)
		return Add(LogPick(p, 2), Sum(Mul(g, g)))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst rel err %g", worst)
}

func TestGradCheckSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.Xavier(1, 6, rng)
	worst, err := GradCheck([]*tensor.Mat{a}, func(tp *Tape) Value {
		av := tp.Param(a)
		lo := Slice(av, 0, 3)
		hi := Slice(av, 3, 6)
		return Sum(Tanh(Mul(lo, hi)))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst rel err %g", worst)
}

func TestGradCheckStackRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r1 := tensor.Xavier(1, 3, rng)
	r2 := tensor.Xavier(1, 3, rng)
	w := tensor.Xavier(3, 1, rng)
	worst, err := GradCheck([]*tensor.Mat{r1, r2, w}, func(tp *Tape) Value {
		m := StackRows([]Value{tp.Param(r1), Tanh(tp.Param(r2))})
		return Sum(MatMul(m, tp.Param(w)))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst rel err %g", worst)
}

func TestSoftmaxMaskedZeroesMasked(t *testing.T) {
	tp := NewTape()
	a := tp.InputVec([]float64{5, 1, 3})
	p := SoftmaxMasked(Transpose(a), []bool{true, false, true})
	d := p.Data()
	if d[1] != 0 {
		t.Fatalf("masked prob = %v", d[1])
	}
	if math.Abs(d[0]+d[2]-1) > 1e-12 {
		t.Fatalf("probs sum to %v", d[0]+d[2])
	}
	if d[0] <= d[2] {
		t.Fatal("higher logit got lower probability")
	}
}

func TestSoftmaxMaskedEmptyMaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tp := NewTape()
	a := tp.InputVec([]float64{1, 2})
	SoftmaxMasked(Transpose(a), []bool{false, false})
}

func TestCrossTapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	t1, t2 := NewTape(), NewTape()
	a := t1.InputVec([]float64{1})
	b := t2.InputVec([]float64{1})
	Add(a, b)
}

func TestBackwardOnNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tp := NewTape()
	a := tp.InputVec([]float64{1, 2})
	a.Backward()
}

func TestBackwardWithSeed(t *testing.T) {
	m := tensor.FromSlice(1, 2, []float64{3, 4})
	tp := NewTape()
	a := tp.Param(m)
	out := Sum(a)
	out.BackwardWithSeed(2.5)
	for i, g := range m.Grad {
		if g != 2.5 {
			t.Fatalf("grad[%d] = %v, want 2.5", i, g)
		}
	}
}

func TestParamGradAccumulatesAcrossTapes(t *testing.T) {
	m := tensor.FromSlice(1, 1, []float64{2})
	for i := 0; i < 3; i++ {
		tp := NewTape()
		Sum(tp.Param(m)).Backward()
	}
	if m.Grad[0] != 3 {
		t.Fatalf("accumulated grad = %v, want 3", m.Grad[0])
	}
}

func TestAddRowBroadcastForward(t *testing.T) {
	tp := NewTape()
	a := tp.Input(tensor.FromSlice(2, 2, []float64{1, 2, 3, 4}))
	b := tp.InputVec([]float64{10, 20})
	c := AddRowBroadcast(a, b)
	want := []float64{11, 22, 13, 24}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("broadcast[%d] = %v", i, v)
		}
	}
}
