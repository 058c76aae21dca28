package ptrnet

import (
	"math/rand"
	"testing"

	ad "respect/internal/autodiff"
)

func TestBeamWidthOneIsGreedy(t *testing.T) {
	m := testModel(21)
	emb := testEmb(t, 15, 22)
	greedy := m.Infer(emb)
	beam := m.InferBeam(emb, 1)
	for i := range greedy {
		if greedy[i] != beam[i] {
			t.Fatalf("beam(1) %v != greedy %v", beam, greedy)
		}
	}
}

func TestBeamIsPermutation(t *testing.T) {
	m := testModel(23)
	for _, w := range []int{2, 4, 8} {
		emb := testEmb(t, 12, int64(w))
		seq := m.InferBeam(emb, w)
		seen := map[int]bool{}
		for _, v := range seq {
			if v < 0 || v >= 12 || seen[v] {
				t.Fatalf("width %d: bad permutation %v", w, seq)
			}
			seen[v] = true
		}
	}
}

func TestBeamLikelihoodAtLeastGreedy(t *testing.T) {
	m := testModel(25)
	for seed := int64(0); seed < 6; seed++ {
		emb := testEmb(t, 14, 100+seed)
		greedy := m.Infer(emb)
		beam := m.InferBeam(emb, 6)
		lg := m.ScoreSeq(emb, greedy)
		lb := m.ScoreSeq(emb, beam)
		if lb < lg-1e-9 {
			t.Fatalf("seed %d: beam logp %.6f < greedy %.6f", seed, lb, lg)
		}
	}
}

func TestScoreSeqMatchesDecodeForced(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		m := testModel(27)
		emb := testEmb(t, 10, 28)
		rng := rand.New(rand.NewSource(29))
		seq := m.InferSample(emb, rng)
		fwd := m.ScoreSeq(emb, seq)
		tape := m.DecodeForced(ad.NewTape(), emb, seq)
		diff := fwd - tape.LogProb.Data()[0]
		if diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("ScoreSeq %.12f != DecodeForced %.12f", fwd, tape.LogProb.Data()[0])
		}
	})
}

func TestBeamWidthClamped(t *testing.T) {
	m := testModel(31)
	emb := testEmb(t, 5, 32)
	seq := m.InferBeam(emb, 50) // wider than the graph
	if len(seq) != 5 {
		t.Fatalf("len %d", len(seq))
	}
}
