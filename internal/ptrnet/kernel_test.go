package ptrnet

import (
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
}

// TestScoreExpTermBound checks the single term against math.Tanh over the
// whole range the bound admits, including where the product of the two
// exponentials overflows and underflows.
func TestScoreExpTermBound(t *testing.T) {
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
}

func TestAddMatVecBitIdenticalToRowwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for rows := 0; rows <= 13; rows++ {
		for _, cols := range []int{1, 5, 64} {
			x := make([]float64, rows)
			w := make([]float64, rows*cols)
			z0 := make([]float64, cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			if rows > 2 {
				x[1] = 0 // the row-wise loop used to skip zeros; adding 0·w is the same number
			}
			for i := range w {
				w[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			for i := range z0 {
				z0[i] = rng.NormFloat64()
			}
			want := slices.Clone(z0)
			for k, xv := range x {
				for j := 0; j < cols; j++ {
					want[j] += xv * w[k*cols+j]
				}
			}
			got := slices.Clone(z0)
			addMatVec(got, x, w)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%d×%d: z[%d] = %x, row-wise %x", rows, cols, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}

// TestTinyGraphs drives the live list through its smallest sizes: every
// mode must emit a permutation and agree with the tape path.
func TestTinyGraphs(t *testing.T) {
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
}

// TestPooledEncodingReuse decodes graphs of different sizes through the
// shared pool, serially and from several goroutines at once: a reused
// Encoding must never carry one graph's state into another's decode.
func TestPooledEncodingReuse(t *testing.T) {
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
}
