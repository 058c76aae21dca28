// Package online closes the serving→training loop: a class-partitioned
// replay buffer records every solved request (graph, winning backend,
// schedule, cost, latency, deadline outcome), a background trainer runs
// the internal/rl policy-gradient step over sampled minibatches with
// the portfolio winners as imitation teachers, and a shadow-evaluated
// promotion pipeline hot-reloads candidate agents into the solver
// registry only when they beat the incumbent by a configured margin on
// a held-out slice. The whole loop is deterministic under an injected
// clock and seeded RNG, so tests replay skewed traffic and assert
// promotion outcomes exactly.
package online

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/ptrnet"
	"respect/internal/rl"
	"respect/internal/rt"
	"respect/internal/sched"
	"respect/internal/solver"
)

// BackendName returns the per-class registry name the online loop
// serves its promoted agent under.
func BackendName(class string) string { return "rl-online-" + class }

// deadlineMissWeight down-weights periodic samples whose job missed its
// deadline: their teacher schedules came from solves that were already
// too slow for the stream and are weaker evidence.
const deadlineMissWeight = 0.5

// winnerSlack bounds how far above the recorded portfolio winners' mean
// cost a promotable candidate may sit, as a multiple: shadow evaluation is
// against both the incumbent and the exact/heur winners.
const winnerSlack = 2.0

// learningRate is the Adam step size of every training round.
const learningRate = 5e-3

// Config parameterizes the learning loop. Zero values take the
// documented defaults.
type Config struct {
	// Registry is the backend table promotions hot-reload into
	// (nil: the process-wide solver registry).
	Registry *solver.Registry
	// Agent seeds every class's incumbent (nil: a fresh model per
	// class, seeded from Seed).
	Agent *ptrnet.Model
	// Classes fixes the set of traffic classes that learn.
	Classes []string
	// Interval is the background training-round period (default 30s).
	Interval time.Duration
	// Margin is the relative held-out cost improvement a candidate must
	// show over the incumbent to be promoted (default 0.02).
	Margin float64
	// BufferCap is the per-class training-ring capacity (default 4096).
	BufferCap int
	// MinSamples is the training-partition floor below which a class
	// skips its round (default 64).
	MinSamples int
	// BatchSize is the minibatch size per gradient step (default 8).
	BatchSize int
	// Steps is the number of gradient steps per round (default 40).
	Steps int
	// Hidden is the fresh-model width when Agent is nil (default 32).
	Hidden int
	// Seed drives every RNG in the loop (minibatch draws, decode
	// sampling, fresh-model init).
	Seed int64
	// Clock injects the time source for the background loop
	// (nil: wall clock).
	Clock rt.Clock
	// Logf receives progress lines (nil: silent).
	Logf func(format string, args ...any)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = solver.Default()
	}
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.Margin == 0 {
		c.Margin = 0.02
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 4096
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 64
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.Steps <= 0 {
		c.Steps = 40
	}
	if c.Hidden <= 0 {
		c.Hidden = 32
	}
	if c.Clock == nil {
		c.Clock = rt.WallClock()
	}
	return c
}

// learner is one class's promotion state.
type learner struct {
	class     string
	seedIdx   int64
	incumbent *ptrnet.Model // the served model; swapped on promotion
	rounds    uint64        // training rounds run for this class (roundMu)

	promotions atomic.Uint64
	rejections atomic.Uint64
	gapBits    atomic.Uint64 // last shadow gap, math.Float64bits
}

// Manager owns the replay buffer, the per-class learners and the
// promotion pipeline.
type Manager struct {
	cfg  Config
	ecfg embed.Config
	buf  *Buffer

	roundMu  sync.Mutex // serializes Round; owns rng and learner.rounds
	rng      *rand.Rand
	learners map[string]*learner
	order    []string // sorted class names: deterministic round order

	trainRounds atomic.Uint64

	// roundHook, when set before Run, is called after every completed
	// background round (test seam).
	roundHook func()
}

// New builds a manager, seeds one incumbent per class and binds each
// under BackendName(class) in the registry via Replace, so portfolios
// can reference the online backends immediately.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("online: no classes to learn for")
	}
	ecfg := embed.Default()
	if cfg.Agent != nil {
		if err := solver.CheckAgent(cfg.Agent, ecfg); err != nil {
			return nil, fmt.Errorf("online: seed agent refused: %w", err)
		}
	}
	m := &Manager{
		cfg:      cfg,
		ecfg:     ecfg,
		buf:      NewBuffer(cfg.BufferCap, cfg.Classes),
		rng:      rand.New(rand.NewSource(cfg.Seed + 13)),
		learners: make(map[string]*learner, len(cfg.Classes)),
	}
	m.order = append(m.order, cfg.Classes...)
	sort.Strings(m.order)
	for i, class := range m.order {
		if _, dup := m.learners[class]; dup {
			return nil, fmt.Errorf("online: duplicate class %q", class)
		}
		var inc *ptrnet.Model
		if cfg.Agent != nil {
			inc = cfg.Agent.Clone()
		} else {
			inc = ptrnet.New(ptrnet.Config{InputDim: ecfg.Dim(), Hidden: cfg.Hidden, Seed: cfg.Seed + int64(i)*1000})
		}
		l := &learner{class: class, seedIdx: int64(i), incumbent: inc}
		if err := m.bindBackend(class, inc); err != nil {
			return nil, err
		}
		m.learners[class] = l
	}
	return m, nil
}

// bindBackend (re)binds the model under the class's online backend name.
// Dynamic registry handles resolve per call, so in-flight solves finish
// on the model they looked up while new requests see the replacement.
func (m *Manager) bindBackend(class string, model *ptrnet.Model) error {
	ecfg := m.ecfg
	return m.cfg.Registry.Replace(solver.NewFunc(BackendName(class), func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		return rl.ScheduleCtx(ctx, model, ecfg, g, numStages)
	}))
}

// Record adds one solved request to the replay buffer.
func (m *Manager) Record(s Sample) {
	if s.Fingerprint == 0 && s.Graph != nil {
		s.Fingerprint = s.Graph.Fingerprint()
	}
	m.buf.Add(s)
}

// RoundResult reports one class's outcome within a training round.
type RoundResult struct {
	// Class is the traffic class.
	Class string
	// Skipped carries the reason no training happened ("" if trained).
	Skipped string
	// MeanReward is the final step's mean imitation reward.
	MeanReward float64
	// CandidateCost, IncumbentCost and WinnerCost are the shadow scores
	// (mean held-out schedule cost) of the trained candidate, the
	// serving incumbent, and the recorded portfolio winners.
	CandidateCost, IncumbentCost, WinnerCost float64
	// Gap is the relative improvement of the candidate over the
	// incumbent ((inc−cand)/inc).
	Gap float64
	// Promoted reports whether the candidate was hot-reloaded.
	Promoted bool
}

// Round runs one training-and-promotion round over every class in
// deterministic (sorted) order and returns the per-class outcomes.
// Safe for concurrent use with Record; rounds themselves serialize.
func (m *Manager) Round(ctx context.Context) []RoundResult {
	m.roundMu.Lock()
	defer m.roundMu.Unlock()
	results := make([]RoundResult, 0, len(m.order))
	trained := false
	for _, class := range m.order {
		if err := ctx.Err(); err != nil {
			break
		}
		res := m.roundClass(ctx, m.learners[class])
		if res.Skipped == "" {
			trained = true
		}
		results = append(results, res)
	}
	if trained {
		m.trainRounds.Add(1)
	}
	if m.cfg.Logf != nil {
		for _, r := range results {
			if r.Skipped != "" {
				m.cfg.Logf("online: class %s skipped: %s", r.Class, r.Skipped)
				continue
			}
			m.cfg.Logf("online: class %s cand=%.0f inc=%.0f winner=%.0f gap=%.4f promoted=%v",
				r.Class, r.CandidateCost, r.IncumbentCost, r.WinnerCost, r.Gap, r.Promoted)
		}
	}
	return results
}

// roundClass trains and shadow-evaluates one candidate for one class;
// callers hold roundMu.
func (m *Manager) roundClass(ctx context.Context, l *learner) RoundResult {
	res := RoundResult{Class: l.class}
	trainN, holdN := m.buf.Len(l.class)
	if trainN < m.cfg.MinSamples {
		res.Skipped = fmt.Sprintf("%d/%d training samples", trainN, m.cfg.MinSamples)
		return res
	}
	if holdN < 1 {
		res.Skipped = "no held-out samples"
		return res
	}

	// Train a candidate from a clone of the incumbent. A fresh trainer
	// per round keeps every round replayable from (seed, class, round#)
	// alone; rejected candidates are dropped, not resumed.
	l.rounds++
	candidate := l.incumbent.Clone()
	tr := rl.NewExampleTrainer(candidate, m.ecfg, rl.Config{
		Hidden:         m.cfg.Hidden,
		LR:             learningRate,
		Seed:           m.cfg.Seed + l.seedIdx*1_000_003 + int64(l.rounds)*7919,
		BatchSize:      m.cfg.BatchSize,
		ChallengeEvery: 10,
	})
	var last rl.IterStats
	for step := 0; step < m.cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			res.Skipped = "cancelled mid-round"
			return res
		}
		batch := m.buf.Minibatch(l.class, m.cfg.BatchSize, m.rng)
		last = tr.StepExamples(step, toExamples(batch))
	}
	res.MeanReward = last.MeanReward

	// Shadow evaluation on the held-out slice: candidate vs incumbent
	// vs the recorded portfolio winners.
	holdout := m.buf.Holdout(l.class, 0)
	res.CandidateCost = m.scoreModel(candidate, holdout)
	res.IncumbentCost = m.scoreModel(l.incumbent, holdout)
	res.WinnerCost = winnerScore(holdout)
	if res.IncumbentCost > 0 && !math.IsInf(res.CandidateCost, 1) {
		res.Gap = (res.IncumbentCost - res.CandidateCost) / res.IncumbentCost
	} else if math.IsInf(res.CandidateCost, 1) {
		res.Gap = math.Inf(-1)
	}
	l.gapBits.Store(math.Float64bits(res.Gap))

	if res.Gap >= m.cfg.Margin && res.CandidateCost <= winnerSlack*res.WinnerCost {
		l.incumbent = candidate
		if err := m.bindBackend(l.class, candidate); err != nil {
			res.Skipped = "rebind failed: " + err.Error()
			l.rejections.Add(1)
			return res
		}
		res.Promoted = true
		l.promotions.Add(1)
	} else {
		l.rejections.Add(1)
	}
	return res
}

// toExamples converts buffer samples to rl imitation examples over their
// sibling-class quotients, the graphs the agent decodes, down-weighting
// deadline-missed teachers. A portfolio winner is deployable, so its
// schedule is constant on every class.
func toExamples(batch []Sample) []rl.Example {
	exs := make([]rl.Example, len(batch))
	for i, s := range batch {
		w := 1.0
		if s.DeadlineMiss {
			w = deadlineMissWeight
		}
		q := sched.Condense(s.Graph)
		exs[i] = rl.Example{G: q.Graph(s.Graph.Name), Truth: q.Restrict(s.Schedule), Weight: w}
	}
	return exs
}

// scoreModel is the shadow objective: the model's mean deployed
// schedule cost over the held-out slice (peak parameter bytes, with
// cross-stage traffic as an epsilon tiebreak). A decode failure scores
// +Inf — such a candidate can never promote.
func (m *Manager) scoreModel(model *ptrnet.Model, holdout []Sample) float64 {
	if len(holdout) == 0 {
		return math.Inf(1)
	}
	total := 0.0
	for _, s := range holdout {
		sc, err := rl.Schedule(model, m.ecfg, s.Graph, s.Schedule.NumStages)
		if err != nil {
			return math.Inf(1)
		}
		c := sc.Evaluate(s.Graph)
		total += float64(c.PeakParamBytes) + 1e-6*float64(c.CrossBytes)
	}
	return total / float64(len(holdout))
}

// winnerScore is the mean recorded cost of the portfolio winners over
// the held-out slice.
func winnerScore(holdout []Sample) float64 {
	if len(holdout) == 0 {
		return math.Inf(1)
	}
	total := 0.0
	for _, s := range holdout {
		total += float64(s.Cost.PeakParamBytes) + 1e-6*float64(s.Cost.CrossBytes)
	}
	return total / float64(len(holdout))
}

// Run executes training rounds every Interval until ctx is cancelled.
func (m *Manager) Run(ctx context.Context) {
	timer := m.cfg.Clock.NewTimer(m.cfg.Interval)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C():
		}
		m.Round(ctx)
		timer.Reset(m.cfg.Clock.Now().Add(m.cfg.Interval))
		if m.roundHook != nil {
			m.roundHook()
		}
	}
}

// TrainRounds returns the number of completed training rounds (rounds
// in which at least one class trained).
func (m *Manager) TrainRounds() uint64 { return m.trainRounds.Load() }

// Samples returns the lifetime recorded-sample count for a class.
func (m *Manager) Samples(class string) uint64 { return m.buf.Samples(class) }

// Dropped returns the count of samples rejected for an unknown class.
func (m *Manager) Dropped() uint64 { return m.buf.Dropped() }

// Promotions returns the promoted-candidate count for a class.
func (m *Manager) Promotions(class string) uint64 {
	if l, ok := m.learners[class]; ok {
		return l.promotions.Load()
	}
	return 0
}

// Rejections returns the dropped-candidate count for a class.
func (m *Manager) Rejections(class string) uint64 {
	if l, ok := m.learners[class]; ok {
		return l.rejections.Load()
	}
	return 0
}

// ShadowGap returns the last shadow-evaluation gap for a class
// ((incumbent − candidate)/incumbent; positive means the candidate was
// better).
func (m *Manager) ShadowGap(class string) float64 {
	if l, ok := m.learners[class]; ok {
		return math.Float64frombits(l.gapBits.Load())
	}
	return 0
}

// Classes returns the learning classes in deterministic order.
func (m *Manager) Classes() []string {
	return append([]string(nil), m.order...)
}

// ClassStats is the per-class slice of Stats.
type ClassStats struct {
	// Backend is the registry name the class's agent serves under.
	Backend string `json:"backend"`
	// Samples is the lifetime recorded-sample count.
	Samples uint64 `json:"samples"`
	// TrainSize and HoldoutSize are the current partition fills.
	TrainSize int `json:"train_size"`
	// HoldoutSize is the held-out partition fill.
	HoldoutSize int `json:"holdout_size"`
	// Promotions and Rejections count shadow-evaluation outcomes.
	Promotions uint64 `json:"promotions"`
	// Rejections counts dropped candidates.
	Rejections uint64 `json:"rejections"`
	// ShadowGap is the last relative candidate-vs-incumbent gap.
	ShadowGap float64 `json:"shadow_gap"`
}

// Stats is the online block served under /v1/stats.
type Stats struct {
	// TrainRounds counts completed training rounds.
	TrainRounds uint64 `json:"train_rounds"`
	// DroppedSamples counts records naming an unknown class.
	DroppedSamples uint64 `json:"dropped_samples,omitempty"`
	// Classes maps class name to its learning state.
	Classes map[string]ClassStats `json:"classes"`
}

// Stats snapshots the loop's state.
func (m *Manager) Stats() Stats {
	st := Stats{
		TrainRounds:    m.trainRounds.Load(),
		DroppedSamples: m.buf.Dropped(),
		Classes:        make(map[string]ClassStats, len(m.order)),
	}
	for _, class := range m.order {
		l := m.learners[class]
		train, hold := m.buf.Len(class)
		st.Classes[class] = ClassStats{
			Backend:     BackendName(class),
			Samples:     m.buf.Samples(class),
			TrainSize:   train,
			HoldoutSize: hold,
			Promotions:  l.promotions.Load(),
			Rejections:  l.rejections.Load(),
			ShadowGap:   math.Float64frombits(l.gapBits.Load()),
		}
	}
	return st
}
