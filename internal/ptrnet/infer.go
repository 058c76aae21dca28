package ptrnet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"respect/internal/nn"
)

// The forward-only path: one encoder pass (Encode) and one decode step
// (decodeStep) that greedy, sampled, beam and scoring decodes all drive.
//
// Numeric contract. The inner loops are the four kernels of kernel.go,
// which run as AVX2 assembly where the CPU has it and as portable Go
// elsewhere; on amd64 the two forms are bit-identical, so which one runs
// never shows in a result. Against the tape path, which shares no code
// with this one: every exponential, and through it every sigmoid and tanh,
// is expv (within 2 ulp of math.Exp) where the tape uses math.Exp and
// math.Tanh, which keeps the LSTM states within 1e-13 absolute; the
// attention tanh is evaluated through precomputed exponentials (scoreExp)
// and a score differs from the math.Tanh form by at most 1e-12 absolute;
// and the emitted sequences are identical on the golden set (testdata/).
// Visited nodes are not scored at all: they carry probability 0 either
// way, and the unvisited ones are kept in index order so every sum over
// nodes runs in the order it always did.

// Attention heads, as indices into Encoding's per-head tables.
const (
	headGlimpse = iota
	headPointer
	numHeads
)

// Encoding is one graph's encoder pass plus the working memory of the
// decodes run from it. It comes from a pool: call Release when done, and
// do not use it afterwards. One Encoding serves one goroutine at a time;
// any number of Encodings may share a Model.
//
// Nothing here outlives Release and nothing is cached on the Model, so
// training a model in place or swapping it under traffic needs no
// invalidation.
type Encoding struct {
	m   *Model
	emb [][]float64

	ctx    []float64          // n×h encoder contexts
	h0, c0 []float64          // encoder's final state, every decode's initial one
	w1e    [numHeads]attTable // per head, W1·E

	z     []float64 // 4h gate pre-activations
	q     []float64 // h: W2·query, then e^{2·W2·query}
	g     []float64 // h glimpse vector
	probs []float64 // n: the distribution decodeStep returns

	states []decState // 1 for a single decode, 2·width for beam search
	cands  []beamCand // beam search's per-step candidates
}

// decState is one partial decode: a beam, or the only one.
type decState struct {
	h, c []float64 // decoder LSTM state
	live []int     // unvisited nodes in ascending order
	last int       // node emitted last, -1 before the first step
	seq  []int     // emitted prefix (beam search only)
	logp float64   // its log-probability (beam search only)
}

var encodingPool = sync.Pool{New: func() any { return new(Encoding) }}

// Encode runs the encoder over the embedded node queue and precomputes
// both attention heads' W1·E terms, which every decode step reuses.
func (m *Model) Encode(emb [][]float64) *Encoding {
	e := encodingPool.Get().(*Encoding)
	e.encode(m, emb)
	return e
}

// Release returns e to the pool.
func (e *Encoding) Release() {
	e.reset()
	encodingPool.Put(e)
}

// reset drops the references to the caller's model and embedding and
// truncates every buffer: capacity is kept for the next graph, no value
// of this one stays reachable through a pooled Encoding.
func (e *Encoding) reset() {
	e.m, e.emb = nil, nil
	e.ctx, e.h0, e.c0 = e.ctx[:0], e.h0[:0], e.c0[:0]
	for hd := range e.w1e {
		t := &e.w1e[hd]
		t.raw, t.exp, t.expOK = t.raw[:0], t.exp[:0], false
	}
	e.z, e.q, e.g, e.probs = e.z[:0], e.q[:0], e.g[:0], e.probs[:0]
	for i := range e.states {
		st := &e.states[i]
		st.h, st.c, st.live, st.seq = st.h[:0], st.c[:0], st.live[:0], st.seq[:0]
	}
	e.cands = e.cands[:0]
}

// grow reslices *buf to n elements, reallocating only when its capacity
// falls short; the contents are unspecified.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func (e *Encoding) encode(m *Model, emb [][]float64) {
	n, h := len(emb), m.Cfg.Hidden
	e.m, e.emb = m, emb
	z := grow(&e.z, 4*h)
	grow(&e.q, h)
	grow(&e.g, h)
	grow(&e.probs, n)

	hEnc, cEnc := grow(&e.h0, h), grow(&e.c0, h)
	clear(hEnc)
	clear(cEnc)
	ctx := grow(&e.ctx, n*h)
	for i, x := range emb {
		if len(x) != m.Cfg.InputDim {
			panic(fmt.Sprintf("ptrnet: embedding width %d, model expects %d", len(x), m.Cfg.InputDim))
		}
		lstmStep(m.Enc, x, hEnc, cEnc, z)
		copy(ctx[i*h:(i+1)*h], hEnc)
	}
	for hd, att := range [numHeads]*nn.Attention{m.Glimpse, m.Pointer} {
		t := &e.w1e[hd]
		raw := grow(&t.raw, n*h)
		clear(raw)
		for i := 0; i < n; i++ {
			addMatVec(raw[i*h:(i+1)*h], ctx[i*h:(i+1)*h], att.W1.Data)
		}
		t.factor()
	}
}

// sized returns e.states grown to at least k entries. Growing moves the
// states, so a decode takes all it needs in one call.
func (e *Encoding) sized(k int) []decState {
	if len(e.states) < k {
		e.states = append(e.states, make([]decState, k-len(e.states))...)
	}
	return e.states[:k]
}

// start readies st as a decode that has emitted nothing.
func (e *Encoding) start(st *decState) {
	copy(grow(&st.h, len(e.h0)), e.h0)
	copy(grow(&st.c, len(e.c0)), e.c0)
	live := grow(&st.live, len(e.emb))
	for v := range live {
		live[v] = v
	}
	st.last, st.seq, st.logp = -1, st.seq[:0], 0
}

// decodeStep advances st by one decoder step and returns the pointer
// distribution over st.live, position for position. The slice is e's and
// is overwritten by the next call.
func (e *Encoding) decodeStep(st *decState) []float64 {
	m, h := e.m, len(st.h)
	x := m.Dec0.Data
	if st.last >= 0 {
		x = e.emb[st.last]
	}
	lstmStep(m.Dec, x, st.h, st.c, e.z)

	p := e.probs[:len(st.live)]
	e.attend(headGlimpse, m.Glimpse, st.h, st.live, p)
	g := e.g
	clear(g)
	for k, v := range st.live {
		axpy(g, e.ctx[v*h:(v+1)*h], p[k])
	}
	e.attend(headPointer, m.Pointer, g, st.live, p)
	return p
}

// attend fills p[k] with the softmax over live of vᵀ·tanh(W1·e_v + W2·query).
func (e *Encoding) attend(hd int, att *nn.Attention, query []float64, live []int, p []float64) {
	q := e.q
	clear(q)
	addMatVec(q, query, att.W2.Data)
	e.w1e[hd].scores(att.V.Data, q, live, p)
	softmax(p)
}

// emit records that st pointed at live position k and returns the node.
// The rest of live shifts down, keeping its order.
func (st *decState) emit(k int) int {
	v := st.live[k]
	st.live = append(st.live[:k], st.live[k+1:]...)
	st.last = v
	return v
}

// budget is a decode's view of its context. It reads the deadline once,
// and err also fails once the clock has passed it: ctx.Err stays nil until
// the runtime delivers the context's timer, and a processor kept busy
// decoding can hold that delivery well past the deadline.
type budget struct {
	ctx      context.Context
	deadline time.Time
	bounded  bool
}

func budgetOf(ctx context.Context) budget {
	d, ok := ctx.Deadline()
	return budget{ctx: ctx, deadline: d, bounded: ok}
}

// err is ctx's error, or context.DeadlineExceeded past the deadline.
func (b budget) err() error {
	if err := b.ctx.Err(); err != nil {
		return err
	}
	if b.bounded && time.Now().After(b.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// run is the single-sequence decode behind Greedy, Sample and Score: at
// each step the node is forced[step] when forced is set, else drawn from
// the pointer distribution when rng is set, else the argmax. logp is
// accumulated for forced sequences only.
func (e *Encoding) run(ctx context.Context, rng *rand.Rand, forced []int) (seq []int, logp float64, err error) {
	n := len(e.emb)
	st := &e.sized(1)[0]
	e.start(st)
	if forced == nil {
		seq = make([]int, 0, n)
	}
	limit := budgetOf(ctx)
	for step := 0; step < n; step++ {
		if err := limit.err(); err != nil {
			return nil, 0, err
		}
		p := e.decodeStep(st)
		if forced != nil {
			v := forced[step]
			k := sort.SearchInts(st.live, v)
			if k == len(st.live) || st.live[k] != v {
				panic(fmt.Sprintf("ptrnet: scored sequence repeats or lacks node %d", v))
			}
			logp += math.Log(math.Max(p[k], 1e-300))
			st.emit(k)
			continue
		}
		k := -1
		if rng != nil {
			r := rng.Float64()
			acc := 0.0
			for i, pv := range p {
				acc += pv
				if r <= acc {
					k = i
					break
				}
			}
		}
		if k < 0 { // greedy, or numerical remainder in sampling
			k = argmax(p)
		}
		seq = append(seq, st.emit(k))
	}
	return seq, logp, nil
}

// Greedy decodes by argmax. It checks ctx once per step and returns its
// error if cancelled or past its deadline.
func (e *Encoding) Greedy(ctx context.Context) ([]int, error) {
	seq, _, err := e.run(ctx, nil, nil)
	return seq, err
}

// Sample decodes by drawing each node from the pointer distribution.
func (e *Encoding) Sample(ctx context.Context, rng *rand.Rand) ([]int, error) {
	seq, _, err := e.run(ctx, rng, nil)
	return seq, err
}

// Score returns the log-probability of emitting seq, the deployment-time
// counterpart of DecodeForced, without a tape. Like DecodeForced it panics
// unless seq is a permutation of the nodes.
func (e *Encoding) Score(seq []int) float64 {
	if len(seq) != len(e.emb) {
		panic(fmt.Sprintf("ptrnet: scored sequence length %d, want %d", len(seq), len(e.emb)))
	}
	_, logp, _ := e.run(context.Background(), nil, seq) // Background is never cancelled
	return logp
}

// Infer is the forward-only deployment path: greedy decoding, the same
// selection rule as greedy Decode without tape bookkeeping. This is what
// the solve-time experiments measure.
func (m *Model) Infer(emb [][]float64) []int {
	e := m.Encode(emb)
	defer e.Release()
	seq, _ := e.Greedy(context.Background()) // Background is never cancelled
	return seq
}

// InferSample is forward-only stochastic decoding: nodes are drawn from
// the pointer distribution instead of argmax.
func (m *Model) InferSample(emb [][]float64, rng *rand.Rand) []int {
	e := m.Encode(emb)
	defer e.Release()
	seq, _ := e.Sample(context.Background(), rng) // Background is never cancelled
	return seq
}

// InferBeam is forward-only beam search of the given width (see
// Encoding.Beam).
func (m *Model) InferBeam(emb [][]float64, width int) []int {
	e := m.Encode(emb)
	defer e.Release()
	seq, _ := e.Beam(context.Background(), width) // Background is never cancelled
	return seq
}

// ScoreSeq returns the forward-only log-probability of emitting seq.
func (m *Model) ScoreSeq(emb [][]float64, seq []int) float64 {
	e := m.Encode(emb)
	defer e.Release()
	return e.Score(seq)
}
