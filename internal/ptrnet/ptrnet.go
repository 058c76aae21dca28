// Package ptrnet implements the paper's RL agent: an encoder/decoder
// LSTM pointer network with glimpse and pointer attention (Figure 1b,
// Algorithm 1). The encoder digests the embedded node queue q into a
// context matrix; the decoder emits a permutation of the nodes by pointing
// at one unscheduled node per step, with visited nodes masked to −∞.
//
// Two execution paths are provided: Decode builds the computation on an
// autodiff tape (training, REINFORCE log-probabilities); Encode and the
// decodes it feeds (Infer, InferSample, InferBeam, ScoreSeq) are the
// allocation-free forward-only path (deployment; the path timed in the
// paper's scheduling-runtime comparisons). The two share no kernel, so the
// tape path is the oracle the forward-only one is tested against.
package ptrnet

import (
	"fmt"
	"math"
	"math/rand"

	ad "respect/internal/autodiff"
	"respect/internal/nn"
	"respect/internal/tensor"
)

// Config shapes the network.
type Config struct {
	// InputDim is the node-embedding width (embed.Config.Dim()).
	InputDim int
	// Hidden is the LSTM/attention width; the paper uses 256 cells.
	Hidden int
	// Seed drives weight initialization.
	Seed int64
}

// Model is the LSTM-PtrNet agent.
type Model struct {
	Cfg     Config
	Enc     *nn.LSTMCell
	Dec     *nn.LSTMCell
	Glimpse *nn.Attention
	Pointer *nn.Attention
	// Dec0 is the trainable input to the first decoding step (Alg. 1).
	Dec0 *tensor.Mat
}

// New initializes a model.
func New(cfg Config) *Model {
	if cfg.InputDim < 1 || cfg.Hidden < 1 {
		panic(fmt.Sprintf("ptrnet: bad config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Model{
		Cfg:     cfg,
		Enc:     nn.NewLSTMCell(cfg.InputDim, cfg.Hidden, rng),
		Dec:     nn.NewLSTMCell(cfg.InputDim, cfg.Hidden, rng),
		Glimpse: nn.NewAttention(cfg.Hidden, rng),
		Pointer: nn.NewAttention(cfg.Hidden, rng),
		Dec0:    tensor.Xavier(1, cfg.InputDim, rng),
	}
}

// Params returns all trainable matrices.
func (m *Model) Params() []*tensor.Mat {
	var ps []*tensor.Mat
	ps = append(ps, m.Enc.Params()...)
	ps = append(ps, m.Dec.Params()...)
	ps = append(ps, m.Glimpse.Params()...)
	ps = append(ps, m.Pointer.Params()...)
	ps = append(ps, m.Dec0)
	return ps
}

// Clone deep-copies the model (for the rollout baseline snapshot).
func (m *Model) Clone() *Model {
	c := New(m.Cfg)
	src, dst := m.Params(), c.Params()
	for i := range src {
		copy(dst[i].Data, src[i].Data)
	}
	return c
}

// DecodeResult is a tape-backed decode outcome.
type DecodeResult struct {
	// Seq is the emitted node permutation π.
	Seq []int
	// LogProb is Σᵢ log p(π(i) | π(<i), G) as a 1×1 tape value — the
	// REINFORCE surrogate.
	LogProb ad.Value
	// AvgEntropy is the mean per-step selection entropy (diagnostic).
	AvgEntropy float64
}

// Decode runs the full encoder/decoder on the tape. When sample is true
// nodes are drawn from the pointer distribution (training exploration);
// otherwise argmax (greedy) selection is used.
func (m *Model) Decode(t *ad.Tape, emb [][]float64, sample bool, rng *rand.Rand) DecodeResult {
	return m.decode(t, emb, sample, rng, nil)
}

// DecodeForced teacher-forces the given permutation, returning its
// log-probability under the model — the reference for gradient checks
// (forced selection keeps the loss smooth under parameter perturbation)
// and for Encoding.Score.
func (m *Model) DecodeForced(t *ad.Tape, emb [][]float64, forced []int) DecodeResult {
	if len(forced) != len(emb) {
		panic(fmt.Sprintf("ptrnet: forced sequence length %d, want %d", len(forced), len(emb)))
	}
	return m.decode(t, emb, false, nil, forced)
}

func (m *Model) decode(t *ad.Tape, emb [][]float64, sample bool, rng *rand.Rand, forced []int) DecodeResult {
	n := len(emb)
	if n == 0 {
		panic("ptrnet: empty embedding")
	}
	if len(emb[0]) != m.Cfg.InputDim {
		panic(fmt.Sprintf("ptrnet: embedding width %d, model expects %d", len(emb[0]), m.Cfg.InputDim))
	}

	// Encoder: contexts Ctext_i and final latent state.
	s := m.Enc.ZeroState(t)
	rows := make([]ad.Value, n)
	for i := 0; i < n; i++ {
		s = m.Enc.Step(t, t.InputVec(emb[i]), s)
		rows[i] = s.H
	}
	contexts := ad.StackRows(rows)
	w1g := m.Glimpse.Precompute(t, contexts)
	w1p := m.Pointer.Precompute(t, contexts)

	dec := nn.State{H: s.H, C: s.C}
	d := t.Param(m.Dec0)
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
	}

	seq := make([]int, 0, n)
	var logp ad.Value
	first := true
	entropy := 0.0
	for step := 0; step < n; step++ {
		dec = m.Dec.Step(t, d, dec)
		g := m.Glimpse.Glimpse(t, contexts, w1g, dec.H, mask)
		scores := m.Pointer.Scores(t, w1p, g)
		p := ad.SoftmaxMasked(scores, mask)

		probs := p.Data()
		idx := -1
		if forced != nil {
			idx = forced[step]
			if !mask[idx] {
				panic(fmt.Sprintf("ptrnet: forced sequence repeats node %d", idx))
			}
		} else if sample {
			r := rng.Float64()
			acc := 0.0
			for i, pv := range probs {
				if !mask[i] {
					continue
				}
				acc += pv
				if r <= acc {
					idx = i
					break
				}
			}
		}
		if idx < 0 { // greedy, or numerical remainder in sampling
			best := math.Inf(-1)
			for i, pv := range probs {
				if mask[i] && pv > best {
					best = pv
					idx = i
				}
			}
		}
		for _, pv := range probs {
			if pv > 0 {
				entropy -= pv * math.Log(pv)
			}
		}

		lp := ad.LogPick(p, idx)
		if first {
			logp = lp
			first = false
		} else {
			logp = ad.Add(logp, lp)
		}
		seq = append(seq, idx)
		mask[idx] = false
		d = t.InputVec(emb[idx])
	}
	return DecodeResult{Seq: seq, LogProb: logp, AvgEntropy: entropy / float64(n)}
}
