package ptrnet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	ad "respect/internal/autodiff"
	"respect/internal/embed"
	"respect/internal/models"
	"respect/internal/synth"
)

func testEmb(t testing.TB, n int, seed int64) [][]float64 {
	t.Helper()
	cfg := synth.DefaultConfig(3)
	cfg.NumNodes = n
	s, err := synth.NewSampler(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return embed.Graph(s.Sample(), embed.Default())
}

func testModel(seed int64) *Model {
	return New(Config{InputDim: embed.Default().Dim(), Hidden: 12, Seed: seed})
}

func TestDecodeIsPermutation(t *testing.T) {
	m := testModel(1)
	emb := testEmb(t, 14, 2)
	rng := rand.New(rand.NewSource(3))
	for _, sample := range []bool{false, true} {
		tp := ad.NewTape()
		res := m.Decode(tp, emb, sample, rng)
		if len(res.Seq) != 14 {
			t.Fatalf("seq len %d", len(res.Seq))
		}
		seen := map[int]bool{}
		for _, v := range res.Seq {
			if v < 0 || v >= 14 || seen[v] {
				t.Fatalf("bad permutation %v", res.Seq)
			}
			seen[v] = true
		}
		if lp := res.LogProb.Data()[0]; lp > 0 {
			t.Fatalf("log prob %v > 0", lp)
		}
		if res.AvgEntropy < 0 {
			t.Fatalf("entropy %v < 0", res.AvgEntropy)
		}
	}
}

// TestInferMatchesGreedyDecode holds the forward-only kernel to the tape
// path, which shares no code with it, from toy inputs up to zoo scale.
func TestInferMatchesGreedyDecode(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		m := testModel(4)
		embs := map[string][][]float64{}
		for _, n := range []int{5, 17, 30} {
			embs[fmt.Sprintf("synth-%d", n)] = testEmb(t, n, int64(n))
		}
		g, err := models.Load("ResNet50v2")
		if err != nil {
			t.Fatal(err)
		}
		embs[g.Name] = embed.Graph(g, embed.Default())
		for name, emb := range embs {
			dec := m.Decode(ad.NewTape(), emb, false, nil)
			inf := m.Infer(emb)
			if !slices.Equal(dec.Seq, inf) {
				t.Errorf("%s: decode %v != infer %v", name, dec.Seq, inf)
			}
			if d := m.ScoreSeq(emb, inf) - dec.LogProb.Data()[0]; math.Abs(d) > 1e-9 {
				t.Errorf("%s: ScoreSeq off the tape log-probability by %g", name, d)
			}
		}
	})
}

func TestDecodeForcedLogProb(t *testing.T) {
	m := testModel(5)
	emb := testEmb(t, 8, 6)
	tp := ad.NewTape()
	greedy := m.Decode(tp, emb, false, nil)
	tp2 := ad.NewTape()
	forced := m.DecodeForced(tp2, emb, greedy.Seq)
	a, b := greedy.LogProb.Data()[0], forced.LogProb.Data()[0]
	if diff := a - b; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("forced logprob %v != greedy %v", b, a)
	}
	// Any other permutation must be no more likely than greedy's first
	// step... (weak sanity: forced reversed differs).
	rev := make([]int, len(greedy.Seq))
	for i, v := range greedy.Seq {
		rev[len(rev)-1-i] = v
	}
	tp3 := ad.NewTape()
	other := m.DecodeForced(tp3, emb, rev)
	if other.LogProb.Data()[0] > a+1e-9 {
		t.Fatalf("reversed sequence more likely than greedy argmax chain")
	}
}

func TestDecodeForcedRejectsRepeats(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m := testModel(6)
	emb := testEmb(t, 5, 7)
	m.DecodeForced(ad.NewTape(), emb, []int{0, 0, 1, 2, 3})
}

func TestGradCheckThroughForcedDecode(t *testing.T) {
	m := New(Config{InputDim: embed.Default().Dim(), Hidden: 5, Seed: 8})
	emb := testEmb(t, 5, 9)
	forced := []int{2, 0, 4, 1, 3}
	worst, err := ad.GradCheck(m.Params(), func(tp *ad.Tape) ad.Value {
		return m.DecodeForced(tp, emb, forced).LogProb
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst rel err %g", worst)
}

func TestSamplingStochasticButSeeded(t *testing.T) {
	m := testModel(10)
	emb := testEmb(t, 12, 11)
	seqA := m.Decode(ad.NewTape(), emb, true, rand.New(rand.NewSource(1))).Seq
	seqB := m.Decode(ad.NewTape(), emb, true, rand.New(rand.NewSource(1))).Seq
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatal("same seed gave different samples")
		}
	}
	diff := false
	for trial := int64(2); trial < 12 && !diff; trial++ {
		seqC := m.Decode(ad.NewTape(), emb, true, rand.New(rand.NewSource(trial))).Seq
		for i := range seqA {
			if seqA[i] != seqC[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("sampling is deterministic across seeds")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := testModel(12)
	c := m.Clone()
	emb := testEmb(t, 10, 13)
	before := m.Infer(emb)
	// Mutate the clone heavily; original must be unaffected.
	for _, p := range c.Params() {
		for i := range p.Data {
			p.Data[i] = 9
		}
	}
	after := m.Infer(emb)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("clone shares storage with original")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := testModel(14)
	emb := testEmb(t, 16, 15)
	want := m.Infer(emb)

	var buf bytes.Buffer
	if err := WriteWeights(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Infer(emb)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("round trip changed behaviour: %v vs %v", want, got)
		}
	}

	path := filepath.Join(t.TempDir(), "model.gob")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m3, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got3 := m3.Infer(emb)
	for i := range want {
		if want[i] != got3[i] {
			t.Fatal("file round trip changed behaviour")
		}
	}
}

func TestLoadCorruptFails(t *testing.T) {
	if _, err := ReadWeights(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{InputDim: 0, Hidden: 4})
}

func BenchmarkInfer(b *testing.B) {
	m := New(Config{InputDim: embed.Default().Dim(), Hidden: 64, Seed: 1})
	for _, n := range []int{30, 100, 180} {
		emb := testEmb(b, n, 1)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for b.Loop() {
				m.Infer(emb)
			}
		})
	}
}
