package ptrnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	ad "respect/internal/autodiff"
	"respect/internal/embed"
)

// scoresVia runs attTable.scores over rows a (one per node) and query q.
func scoresVia(v []float64, a [][]float64, q []float64) (p []float64, factored bool) {
	var t attTable
	live := make([]int, len(a))
	for i, row := range a {
		t.raw = append(t.raw, row...)
		live[i] = i
	}
	t.factor()
	p = make([]float64, len(a))
	qq := slices.Clone(q)
	factored = t.expOK && withinExpSafe(qq)
	t.scores(v, qq, live, p)
	return p, factored
}

func TestAttentionScoresMatchTanhForm(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		const h = 16
		rng := rand.New(rand.NewSource(1))
		v := make([]float64, h)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		var vAbs float64
		for _, x := range v {
			vAbs += math.Abs(x)
		}
		tiny := math.SmallestNonzeroFloat64
		fill := func(x float64) []float64 {
			row := make([]float64, h)
			for j := range row {
				row[j] = x
			}
			return row
		}
		random := func(scale float64) []float64 {
			row := make([]float64, h)
			for j := range row {
				row[j] = scale * rng.NormFloat64()
			}
			return row
		}
		type scoreCase struct {
			name     string
			a        [][]float64
			q        []float64
			factored bool // ignored for "random"
		}
		cases := []scoreCase{
			{"typical", [][]float64{random(1), random(1), random(3)}, random(1), true},
			{"wide", [][]float64{random(20), random(60)}, random(40), true},
			{"zeros", [][]float64{fill(0), fill(math.Copysign(0, -1))}, fill(math.Copysign(0, -1)), true},
			{"subnormal", [][]float64{fill(tiny), fill(-tiny), fill(1e-310)}, fill(tiny), true},
			{"opposite saturation inside the bound", [][]float64{fill(expSafe), fill(-expSafe), fill(349.5)}, fill(-expSafe), true},
			{"same-sign saturation inside the bound", [][]float64{fill(expSafe), fill(-expSafe)}, fill(expSafe), true},
			{"row past the bound", [][]float64{fill(1), fill(math.Nextafter(expSafe, 1e3))}, fill(-expSafe), false},
			{"query past the bound", [][]float64{fill(expSafe), fill(-1)}, fill(-math.Nextafter(expSafe, 1e3)), false},
			{"Inf·0 territory", [][]float64{fill(400), fill(-400), fill(1e3)}, fill(-400), false},
			{"cancelling thousands", [][]float64{fill(1e3), fill(-1e3), fill(999.75)}, fill(-1e3), false},
			{"huge", [][]float64{fill(1e300), fill(-1e300)}, fill(1e300), false},
		}
		for i := 0; i < 200; i++ {
			scale := math.Pow(10, 3*rng.Float64()) // 1 .. 1e3
			cases = append(cases, scoreCase{"random", [][]float64{random(scale), random(scale), random(1)}, random(scale), false})
		}
		for _, c := range cases {
			got, factored := scoresVia(v, c.a, c.q)
			if c.name != "random" && factored != c.factored {
				t.Errorf("%s: exp-factored = %v, want %v", c.name, factored, c.factored)
			}
			for i, row := range c.a {
				want := scoreTanh(v, row, c.q)
				if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
					t.Fatalf("%s: score %d is %v", c.name, i, got[i])
				}
				if d := math.Abs(got[i] - want); d > 1e-12 {
					t.Errorf("%s: score %d = %.17g, math.Tanh form %.17g (diff %g)", c.name, i, got[i], want, d)
				}
				if math.Abs(got[i]) > vAbs {
					t.Errorf("%s: |score| %g exceeds Σ|v| %g", c.name, got[i], vAbs)
				}
			}
		}
	})
}

// TestScoreExpTermBound checks the single term against math.Tanh over the
// whole range the bound admits, including where the product of the two
// exponentials overflows and underflows.
func TestScoreExpTermBound(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		one := []float64{1}
		check := func(a, q float64) {
			got := scoreExp(one, []float64{math.Exp(2 * a)}, []float64{math.Exp(2 * q)})
			want := math.Tanh(a + q)
			if math.IsNaN(got) || math.Abs(got-want) > 1e-14 {
				t.Fatalf("a=%g q=%g: %.17g, want %.17g", a, q, got, want)
			}
		}
		for _, a := range []float64{-expSafe, -300, -1, -1e-9, 0, 1e-9, 1, 300, expSafe} {
			for _, q := range []float64{-expSafe, -300, -1, -1e-9, 0, 1e-9, 1, 300, expSafe} {
				check(a, q)
			}
		}
		for i := 0; i < 20000; i++ {
			a := (2*rng.Float64() - 1) * expSafe
			check(a, (2*rng.Float64()-1)*expSafe)
			check(a, -a+rng.NormFloat64()) // near cancellation, where tanh is steep
		}
	})
}

// The differential tests hold each kernel, on each path this CPU has, to
// a plain statement of its definition written here, bit for bit; two paths
// that both equal the definition equal each other. Every slice a kernel
// sees lies inside a larger buffer of sentinels that must come back
// untouched.

const guardLen = 9 // odd, so the guarded slice starts off any 32-byte boundary

const guardBits uint64 = 0x7ff8_dead_beef_0001 // a NaN no kernel computes

// guarded copies xs into the middle of a sentinel-filled buffer and returns
// the copy, with no capacity beyond its length, and a check that every
// sentinel is still in place.
func guarded(t *testing.T, xs []float64) ([]float64, func()) {
	t.Helper()
	buf := make([]float64, len(xs)+2*guardLen)
	for i := range buf {
		buf[i] = math.Float64frombits(guardBits)
	}
	inner := buf[guardLen : guardLen+len(xs) : guardLen+len(xs)]
	copy(inner, xs)
	return inner, func() {
		t.Helper()
		for i, g := range buf {
			if (i < guardLen || i >= guardLen+len(xs)) && math.Float64bits(g) != guardBits {
				t.Fatalf("guard word %d of a %d-element buffer overwritten with %x", i-guardLen, len(xs), math.Float64bits(g))
			}
		}
	}
}

// sameBits fails unless got and want hold the same bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %x (%g), definition gives %x (%g)", what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// mixedNormals draws n values whose magnitudes span seven decades.
func mixedNormals(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return xs
}

func TestAddMatVecBitIdenticalToRowwise(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for rows := 0; rows <= 13; rows++ {
			for cols := 0; cols <= 70; cols++ {
				x0, w0, z0 := mixedNormals(rng, rows), mixedNormals(rng, rows*cols), mixedNormals(rng, cols)
				if rows > 2 {
					x0[1] = 0 // the row-wise loop used to skip zeros; adding 0·w is the same number
				}
				want := slices.Clone(z0)
				for k, xv := range x0 {
					for j := 0; j < cols; j++ {
						want[j] += xv * w0[k*cols+j]
					}
				}
				x, xOK := guarded(t, x0)
				w, wOK := guarded(t, w0)
				z, zOK := guarded(t, z0)
				addMatVec(z, x, w)
				sameBits(t, fmt.Sprintf("addMatVec %d×%d", rows, cols), z, want)
				xOK()
				wOK()
				zOK()
				sameBits(t, "addMatVec's x", x, x0)
				sameBits(t, "addMatVec's w", w, w0)
			}
		}
	})
}

func TestAxpyBitIdenticalToDefinition(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for n := 0; n <= 70; n++ {
			z0, row0 := mixedNormals(rng, n), mixedNormals(rng, n+n%3) // row may be longer than z
			a := []float64{rng.NormFloat64(), 0, 1e-300}[n%3]
			want := slices.Clone(z0)
			for j := range want {
				want[j] += a * row0[j]
			}
			z, zOK := guarded(t, z0)
			row, rowOK := guarded(t, row0)
			axpy(z, row, a)
			sameBits(t, fmt.Sprintf("axpy %d", n), z, want)
			zOK()
			rowOK()
			sameBits(t, "axpy's row", row, row0)
		}
	})
}

func TestScoreExpBitIdenticalToDefinition(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for n := 0; n <= 70; n++ {
			v0, ea0, eq0 := mixedNormals(rng, n), make([]float64, n), make([]float64, n)
			for j := range ea0 {
				// Exponentials of anything inside the bound, so that products
				// overflow and underflow as they can in a decode.
				ea0[j] = math.Exp(2 * (2*rng.Float64() - 1) * expSafe)
				eq0[j] = math.Exp(2 * rng.NormFloat64())
			}
			var lane [4]float64
			for j := 0; j < n&^3; j++ {
				lane[j%4] += v0[j] * (1 - 2/(ea0[j]*eq0[j]+1))
			}
			want := (lane[0] + lane[1]) + (lane[2] + lane[3])
			for j := n &^ 3; j < n; j++ {
				want += v0[j] * (1 - 2/(ea0[j]*eq0[j]+1))
			}
			v, vOK := guarded(t, v0)
			ea, eaOK := guarded(t, ea0)
			eq, eqOK := guarded(t, eq0)
			got := scoreExp(v, ea, eq)
			sameBits(t, fmt.Sprintf("scoreExp %d", n), []float64{got}, []float64{want})
			vOK()
			eaOK()
			eqOK()
			sameBits(t, "scoreExp's v", v, v0)
			sameBits(t, "scoreExp's ea", ea, ea0)
			sameBits(t, "scoreExp's eq", eq, eq0)
		}
	})
}

// expvInputs is n values cycling through every kind of input expv has a
// rule for, interleaved with ordinary ones.
func expvInputs(rng *rand.Rand, n int) []float64 {
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5 * math.Ln2, -0.5 * math.Ln2,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -1e-310, 1e-17,
		expClamp, -expClamp, math.Nextafter(expClamp, 0), math.Nextafter(expClamp, 1e3), -math.Nextafter(expClamp, 1e3),
		709.9, -745.2, 1e4, -1e4, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8_0000_0000_0abc),
	}
	xs := make([]float64, n)
	for i := range xs {
		switch k := rng.Intn(2 * len(special)); {
		case k < len(special):
			xs[i] = special[k]
		case k%2 == 0:
			xs[i] = rng.NormFloat64()
		default:
			xs[i] = (2*rng.Float64() - 1) * 800
		}
	}
	return xs
}

func TestExpvBitIdenticalToDefinition(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		for n := 0; n <= 70; n++ {
			for rep := 0; rep < 8; rep++ {
				xs0 := expvInputs(rng, n)
				want := make([]float64, n)
				for i, x := range xs0 {
					want[i] = exp1(x)
				}
				xs, ok := guarded(t, xs0)
				expv(xs)
				sameBits(t, fmt.Sprintf("expv %d", n), xs, want)
				ok()
			}
		}
	})
}

// ulpsApart is the distance between two positive finite numbers in units
// in the last place.
func ulpsApart(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

// TestExpvAccuracy holds expv to 2 ulp of math.Exp over the whole clamp,
// to the clamp's value outside it, and to NaN on NaN.
func TestExpvAccuracy(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		xs := make([]float64, 0, 100_000)
		for len(xs) < cap(xs) {
			switch len(xs) % 4 {
			case 0:
				xs = append(xs, (2*rng.Float64()-1)*expClamp)
			case 1:
				xs = append(xs, rng.NormFloat64())
			case 2:
				xs = append(xs, 20*rng.NormFloat64())
			default:
				xs = append(xs, 1e-6*rng.NormFloat64())
			}
		}
		xs = append(xs, expClamp, -expClamp, 0, math.Copysign(0, -1), math.Ln2/2, -math.Ln2/2)
		got := slices.Clone(xs)
		expv(got)
		var worst uint64
		for i, x := range xs {
			want := math.Exp(x)
			if !(got[i] >= 0x1p-1022) || math.IsInf(got[i], 0) {
				t.Fatalf("expv(%g) = %g is not a positive normal number", x, got[i])
			}
			d := ulpsApart(got[i], want)
			if d > 2 {
				t.Fatalf("expv(%g) = %.17g, math.Exp %.17g: %d ulp apart", x, got[i], want, d)
			}
			worst = max(worst, d)
		}
		t.Logf("worst distance from math.Exp over %d points: %d ulp", len(xs), worst)

		edge := []float64{math.Inf(1), 1e300, 708.5, math.Inf(-1), -1e300, -708.5, math.NaN(), -math.NaN()}
		expv(edge)
		hi, lo := math.Exp(expClamp), math.Exp(-expClamp)
		for i, want := range []float64{hi, hi, hi, lo, lo, lo} {
			if ulpsApart(edge[i], want) > 2 {
				t.Errorf("past the clamp, case %d: %g, want %g", i, edge[i], want)
			}
		}
		if !math.IsNaN(edge[6]) || !math.IsNaN(edge[7]) {
			t.Errorf("expv(NaN) = %g, %g", edge[6], edge[7])
		}
	})
}

// TestEncoderStatesMatchTape holds the forward-only LSTM, whose sigmoid
// and tanh go through expv, to the tape path's math.Exp and math.Tanh.
func TestEncoderStatesMatchTape(t *testing.T) {
	m := New(Config{InputDim: embed.Default().Dim(), Hidden: 24, Seed: 97})
	emb := testEmb(t, 60, 98)
	tp := ad.NewTape()
	s := m.Enc.ZeroState(tp)
	var want []float64
	for _, x := range emb {
		s = m.Enc.Step(tp, tp.InputVec(x), s)
		want = append(want, s.H.Data()...)
	}
	withKernels(t, func(t *testing.T) {
		e := m.Encode(emb)
		defer e.Release()
		for i, w := range want {
			if d := math.Abs(e.ctx[i] - w); !(d <= 1e-13) {
				t.Fatalf("node %d, unit %d: hidden state %.17g, tape %.17g (diff %g)", i/24, i%24, e.ctx[i], w, d)
			}
		}
		for j, w := range s.C.Data() {
			if d := math.Abs(e.c0[j] - w); !(d <= 1e-13) {
				t.Fatalf("final cell state %d: %.17g, tape %.17g (diff %g)", j, e.c0[j], w, d)
			}
		}
	})
}

// TestGreedyAllocatesOnlyItsResult: on a warm pooled Encoding a greedy
// decode allocates the sequence it returns and nothing else, on either
// path (an assembly call must not make its arguments escape).
func TestGreedyAllocatesOnlyItsResult(t *testing.T) {
	m := testModel(99)
	emb := testEmb(t, 40, 100)
	withKernels(t, func(t *testing.T) {
		e := m.Encode(emb)
		defer e.Release()
		if _, err := e.Greedy(t.Context()); err != nil { // sizes the decode state
			t.Fatal(err)
		}
		ctx := t.Context()
		if n := testing.AllocsPerRun(20, func() { e.Greedy(ctx) }); n != 1 {
			t.Fatalf("a warm greedy decode allocates %v times, want 1 (the sequence)", n)
		}
	})
}

// TestTinyGraphs drives the live list through its smallest sizes: every
// mode must emit a permutation and agree with the tape path.
func TestTinyGraphs(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		m := testModel(61)
		for n := 1; n <= 2; n++ {
			emb := testEmb(t, 6, int64(62+n))[:n]
			want := m.Decode(ad.NewTape(), emb, false, nil)
			greedy := m.Infer(emb)
			if !slices.Equal(greedy, want.Seq) {
				t.Fatalf("n=%d: Infer %v, tape decode %v", n, greedy, want.Seq)
			}
			if d := m.ScoreSeq(emb, greedy) - want.LogProb.Data()[0]; math.Abs(d) > 1e-9 {
				t.Fatalf("n=%d: ScoreSeq off the tape log-probability by %g", n, d)
			}
			for _, w := range []int{1, 2, 8} {
				if beam := m.InferBeam(emb, w); !slices.Equal(beam, greedy) && m.ScoreSeq(emb, beam) < m.ScoreSeq(emb, greedy) {
					t.Fatalf("n=%d width %d: beam %v less likely than greedy %v", n, w, beam, greedy)
				}
			}
			for seed := int64(0); seed < 8; seed++ {
				seq := m.InferSample(emb, rand.New(rand.NewSource(seed)))
				sorted := slices.Clone(seq)
				slices.Sort(sorted)
				for i, v := range sorted {
					if len(sorted) != n || v != i {
						t.Fatalf("n=%d: sample %v is not a permutation", n, seq)
					}
				}
			}
		}
		if got := m.Infer(nil); len(got) != 0 {
			t.Fatalf("empty graph decoded to %v", got)
		}
	})
}

// TestPooledEncodingReuse decodes graphs of different sizes through the
// shared pool, serially and from several goroutines at once: a reused
// Encoding must never carry one graph's state into another's decode.
func TestPooledEncodingReuse(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		ms := []*Model{testModel(71), New(Config{InputDim: embed.Default().Dim(), Hidden: 20, Seed: 72})}
		sizes := []int{40, 3, 17, 1, 29, 8}
		type job struct {
			m    *Model
			emb  [][]float64
			want []int
			logp float64
			beam []int
		}
		var jobs []job
		for i, n := range sizes {
			for _, m := range ms {
				emb := testEmb(t, max(n, 6), int64(80+i))[:n]
				// A fresh, never-pooled Encoding is the reference.
				e := new(Encoding)
				e.encode(m, emb)
				want, _ := e.Greedy(t.Context())
				beam, _ := e.Beam(t.Context(), 4)
				jobs = append(jobs, job{m, emb, want, e.Score(want), beam})
			}
		}
		check := func(j job) {
			if got := j.m.Infer(j.emb); !slices.Equal(got, j.want) {
				t.Errorf("n=%d: pooled greedy %v, fresh %v", len(j.emb), got, j.want)
			}
			if got := j.m.InferBeam(j.emb, 4); !slices.Equal(got, j.beam) {
				t.Errorf("n=%d: pooled beam %v, fresh %v", len(j.emb), got, j.beam)
			}
			if got := j.m.ScoreSeq(j.emb, j.want); got != j.logp {
				t.Errorf("n=%d: pooled score %v, fresh %v", len(j.emb), got, j.logp)
			}
		}
		for _, j := range jobs {
			check(j)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range jobs {
					check(jobs[(i+w)%len(jobs)])
				}
			}(w)
		}
		wg.Wait()
	})
}

func TestEncodingResetDropsReferences(t *testing.T) {
	m := testModel(91)
	e := m.Encode(testEmb(t, 9, 92))
	if _, err := e.Beam(t.Context(), 3); err != nil {
		t.Fatal(err)
	}
	e.reset()
	if e.m != nil || e.emb != nil || len(e.ctx) != 0 || len(e.probs) != 0 || len(e.w1e[headPointer].raw) != 0 {
		t.Fatalf("reset left state behind: %+v", e)
	}
	for _, st := range e.states {
		if len(st.h) != 0 || len(st.live) != 0 || len(st.seq) != 0 {
			t.Fatalf("reset left a decode state behind: %+v", st)
		}
	}
	encodingPool.Put(e)
}

// TestDegenerateWeightsTakeTanhForm makes W1·E exceed the bound: the
// decode must fall back to math.Tanh and still agree with the tape path.
func TestDegenerateWeightsTakeTanhForm(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		m := testModel(95)
		for i := range m.Pointer.W1.Data {
			m.Pointer.W1.Data[i] *= 5e3
		}
		emb := testEmb(t, 12, 96)
		e := m.Encode(emb)
		defer e.Release()
		if e.w1e[headPointer].expOK || !e.w1e[headGlimpse].expOK {
			t.Fatalf("expOK = glimpse %v, pointer %v; want true, false", e.w1e[headGlimpse].expOK, e.w1e[headPointer].expOK)
		}
		got, err := e.Greedy(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Decode(ad.NewTape(), emb, false, nil).Seq; !slices.Equal(got, want) {
			t.Fatalf("greedy %v, tape decode %v", got, want)
		}
	})
}
