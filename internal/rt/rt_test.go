package rt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// nopRun is a Run for tests that only exercise admission: it never
// actually executes because those dispatchers are never started.
func nopRun(ctx context.Context, j Job) error { return nil }

// harness couples a dispatcher to a fake clock and a result channel so
// tests drive releases deterministically: advance the clock, then block
// on the next JobResult instead of sleeping.
type harness struct {
	clk     *FakeClock
	results chan JobResult
}

func newHarness() *harness {
	return &harness{
		clk:     NewFakeClock(time.Unix(0, 0)),
		results: make(chan JobResult, 1024),
	}
}

// config returns a Config wired to the harness clock and result channel.
func (h *harness) config(p Policy, run func(ctx context.Context, j Job) error) Config {
	return Config{
		Policy:     p,
		Run:        run,
		Clock:      h.clk,
		OnComplete: func(res JobResult) { h.results <- res },
	}
}

// next blocks for the next job result.
func (h *harness) next(t *testing.T) JobResult {
	t.Helper()
	return <-h.results
}

func TestParsePolicy(t *testing.T) {
	for _, ok := range []string{"fifo", "rm", "edf"} {
		p, err := ParsePolicy(ok)
		if err != nil || string(p) != ok {
			t.Fatalf("ParsePolicy(%q) = %v, %v", ok, p, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Fatal("ParsePolicy accepted lifo")
	}
}

func TestLiuLaylandAndDefaultBound(t *testing.T) {
	if got := LiuLayland(1); got != 1 {
		t.Fatalf("LiuLayland(1) = %v, want 1", got)
	}
	if got, want := LiuLayland(2), 2*(math.Sqrt2-1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("LiuLayland(2) = %v, want %v", got, want)
	}
	if got := LiuLayland(100); got < math.Ln2 || got > 1 {
		t.Fatalf("LiuLayland(100) = %v outside (ln2, 1)", got)
	}
	if DefaultBound(EDF, 5) != 1 {
		t.Fatal("EDF default bound should be 1")
	}
	if DefaultBound(RM, 3) != LiuLayland(3) || DefaultBound(FIFO, 3) != LiuLayland(3) {
		t.Fatal("RM/FIFO default bound should be Liu & Layland")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Policy: "lifo", Run: nopRun},
		{UtilBound: -0.5, Run: nopRun},
		{Workers: -1, Run: nopRun},
		{}, // no Run
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: New accepted invalid config %+v", i, cfg)
		}
	}
	d, err := New(Config{Run: nopRun})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if d.Policy() != EDF {
		t.Fatalf("default policy = %v, want edf", d.Policy())
	}
}

func TestRegisterValidation(t *testing.T) {
	d, err := New(Config{Policy: EDF, Run: nopRun})
	if err != nil {
		t.Fatal(err)
	}
	bad := []StreamSpec{
		{Period: time.Second, Cost: time.Millisecond},                                       // no name
		{Name: "a", Cost: time.Millisecond},                                                 // no period
		{Name: "a", Period: time.Second, Deadline: 2 * time.Second, Cost: time.Millisecond}, // deadline > period
		{Name: "a", Period: time.Second, Deadline: -time.Second, Cost: time.Millisecond},    // negative deadline
		{Name: "a", Period: time.Second, Cost: -time.Millisecond},                           // negative cost
		{Name: "a", Period: time.Second},                                                    // no cost, no Estimate
	}
	for i, spec := range bad {
		if _, err := d.Register(spec); err == nil {
			t.Fatalf("case %d: Register accepted invalid spec %+v", i, spec)
		}
	}
	if _, err := d.Register(StreamSpec{Name: "a", Period: time.Second, Cost: 10 * time.Millisecond}); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if _, err := d.Register(StreamSpec{Name: "a", Period: time.Second, Cost: 10 * time.Millisecond}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestSchedulabilityUtilizationBound(t *testing.T) {
	// Two streams at 0.5 utilization each: fine under EDF (bound 1.0),
	// rejected under RM's Liu & Layland bound (0.828).
	specs := []StreamSpec{
		{Name: "a", Period: 100 * time.Millisecond, Cost: 50 * time.Millisecond},
		{Name: "b", Period: 200 * time.Millisecond, Cost: 100 * time.Millisecond},
	}
	edf, _ := New(Config{Policy: EDF, Run: nopRun})
	for _, sp := range specs {
		if _, err := edf.Register(sp); err != nil {
			t.Fatalf("edf rejected %q: %v", sp.Name, err)
		}
	}
	rm, _ := New(Config{Policy: RM, Run: nopRun})
	if _, err := rm.Register(specs[0]); err != nil {
		t.Fatalf("rm rejected first stream: %v", err)
	}
	_, err := rm.Register(specs[1])
	if !errors.Is(err, ErrNotSchedulable) {
		t.Fatalf("rm admission of util-1.0 set: err = %v, want ErrNotSchedulable", err)
	}
	// The explicit-bound override admits the same set (and skips RTA).
	over, _ := New(Config{Policy: RM, UtilBound: 1.5, Run: nopRun})
	for _, sp := range specs {
		if _, err := over.Register(sp); err != nil {
			t.Fatalf("override bound rejected %q: %v", sp.Name, err)
		}
	}
	// Cost beyond the deadline is never schedulable, bound or not.
	_, err = over.Register(StreamSpec{Name: "c", Period: 100 * time.Millisecond,
		Deadline: 20 * time.Millisecond, Cost: 30 * time.Millisecond})
	if !errors.Is(err, ErrNotSchedulable) {
		t.Fatalf("cost>deadline: err = %v, want ErrNotSchedulable", err)
	}
}

func TestSchedulabilityResponseTimeAnalysis(t *testing.T) {
	// Utilization 0.5 passes every bound, but stream b's 60ms deadline
	// cannot absorb a's interference under RM (R = 30 + ceil(R/100)*40
	// fixes at 70ms) or FIFO. EDF's density test (0.9) admits it.
	specs := []StreamSpec{
		{Name: "a", Period: 100 * time.Millisecond, Cost: 40 * time.Millisecond},
		{Name: "b", Period: 300 * time.Millisecond, Deadline: 60 * time.Millisecond, Cost: 30 * time.Millisecond},
	}
	for _, tc := range []struct {
		policy Policy
		admit  bool
	}{{EDF, true}, {RM, false}, {FIFO, false}} {
		d, _ := New(Config{Policy: tc.policy, Run: nopRun})
		var err error
		for _, sp := range specs {
			if _, err = d.Register(sp); err != nil {
				break
			}
		}
		if tc.admit && err != nil {
			t.Fatalf("%s rejected RTA-feasible set: %v", tc.policy, err)
		}
		if !tc.admit && !errors.Is(err, ErrNotSchedulable) {
			t.Fatalf("%s admission: err = %v, want ErrNotSchedulable", tc.policy, err)
		}
	}
}

func TestEstimateFeedsAdmission(t *testing.T) {
	est := 5 * time.Millisecond
	d, _ := New(Config{
		Policy: EDF,
		Run:    nopRun,
		Estimate: func(s *Stream) time.Duration {
			return est
		},
	})
	s, err := d.Register(StreamSpec{Name: "a", Period: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("Register with Estimate: %v", err)
	}
	if s.Cost() != est {
		t.Fatalf("cost = %v, want %v", s.Cost(), est)
	}
	// A later registration re-estimates the existing stream too.
	est = 9 * time.Millisecond
	if _, err := d.Register(StreamSpec{Name: "b", Period: 100 * time.Millisecond}); err != nil {
		t.Fatalf("second Register: %v", err)
	}
	if s.Cost() != est {
		t.Fatalf("refreshed cost = %v, want %v", s.Cost(), est)
	}
	// An estimate that no longer fits the deadline blocks new admissions.
	est = 150 * time.Millisecond
	if _, err := d.Register(StreamSpec{Name: "c", Period: 200 * time.Millisecond}); !errors.Is(err, ErrNotSchedulable) {
		t.Fatalf("oversized estimate: err = %v, want ErrNotSchedulable", err)
	}
}

func TestDispatcherReleasesAndCompletes(t *testing.T) {
	h := newHarness()
	d, _ := New(h.config(EDF, func(ctx context.Context, j Job) error { return nil }))
	s, err := d.Register(StreamSpec{Name: "cam", Period: 30 * time.Millisecond, Cost: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stop, err := d.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The first job releases at start; each clock advance of one period
	// releases exactly one more. Awaiting the result before advancing
	// keeps the schedule lock-step deterministic.
	for i := 0; i < 4; i++ {
		if i > 0 {
			h.clk.Advance(30 * time.Millisecond)
		}
		res := h.next(t)
		if res.Dropped || res.Missed || res.Err != nil {
			t.Fatalf("job %d: unexpected result %+v", i, res)
		}
	}
	stop()
	if got := s.Completions(); got != 4 {
		t.Fatalf("completions = %d, want 4", got)
	}
	if got := s.Releases(); got != 4 {
		t.Fatalf("releases = %d, want 4", got)
	}
	if s.Misses() != 0 {
		t.Fatalf("misses = %d for a trivially schedulable stream", s.Misses())
	}
	st := d.Stats()
	if st.Policy != EDF || len(st.Streams) != 1 || st.Streams[0].Name != "cam" {
		t.Fatalf("stats = %+v", st)
	}
	if st.Releases != s.Releases() || st.Completions != s.Completions() {
		t.Fatalf("stats totals %+v do not reconcile with stream counters", st)
	}
}

func TestDeadlineMissAndSupersedeAccounting(t *testing.T) {
	h := newHarness()
	cfg := h.config(EDF, func(ctx context.Context, j Job) error {
		// Each execution burns 45ms of virtual time — far past the 15ms
		// deadline and the 25ms release period.
		h.clk.Advance(45 * time.Millisecond)
		return nil
	})
	// Overload deliberately; admission must be bypassed via bound.
	cfg.UtilBound = 10
	d, _ := New(cfg)
	s, err := d.Register(StreamSpec{Name: "slow", Period: 25 * time.Millisecond,
		Deadline: 15 * time.Millisecond, Cost: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stop, err := d.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// t=0: job 1 releases and starts; running it advances the clock to
	// t=45, past both its own deadline (15) and the t=25 release of
	// job 2 (deadline 40), which the worker must then shed unrun.
	first := h.next(t)
	if !first.Missed || first.Dropped || first.Tardiness != 30*time.Millisecond {
		t.Fatalf("job 1: %+v, want missed with 30ms tardiness", first)
	}
	second := h.next(t)
	if !second.Dropped || !second.Missed {
		t.Fatalf("job 2: %+v, want shed (dropped and missed)", second)
	}
	// t=65: job 3 (released t=50, deadline 65) is exactly at its
	// deadline when the worker sees it — shed as well.
	h.clk.Advance(20 * time.Millisecond)
	third := h.next(t)
	if !third.Dropped || !third.Missed {
		t.Fatalf("job 3: %+v, want shed (dropped and missed)", third)
	}
	stop()
	if s.Misses() != 3 || s.Drops() != 2 || s.Completions() != 1 {
		t.Fatalf("misses=%d drops=%d completions=%d; want 3, 2, 1",
			s.Misses(), s.Drops(), s.Completions())
	}
	// Every release is accounted for: completed or dropped.
	if s.Releases() != s.Completions()+s.Drops() {
		t.Fatalf("unaccounted releases: releases=%d completions=%d drops=%d",
			s.Releases(), s.Completions(), s.Drops())
	}
}

func TestRemoveCancelsPending(t *testing.T) {
	h := newHarness()
	cfg := h.config(FIFO, func(ctx context.Context, j Job) error { return nil })
	cfg.UtilBound = 10
	d, _ := New(cfg)
	if _, err := d.Register(StreamSpec{Name: "a", Period: 20 * time.Millisecond, Cost: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	stop, err := d.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// Await the initial release's completion so Remove races nothing.
	if res := h.next(t); res.Err != nil {
		t.Fatalf("first job failed: %v", res.Err)
	}
	if !d.Remove("a") {
		t.Fatal("Remove returned false for a registered stream")
	}
	if d.Remove("a") {
		t.Fatal("Remove returned true for an unregistered stream")
	}
	if st := d.Stats(); len(st.Streams) != 0 {
		t.Fatalf("stats still lists %d streams after Remove", len(st.Streams))
	}
}

func TestShutdownLeavesNoOrphanedReleases(t *testing.T) {
	h := newHarness()
	d, _ := New(h.config(RM, func(ctx context.Context, j Job) error { return nil }))
	for i := 0; i < 3; i++ {
		spec := StreamSpec{Name: fmt.Sprintf("s%d", i),
			Period: time.Duration(20+10*i) * time.Millisecond, Cost: time.Millisecond}
		if _, err := d.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	stop, err := d.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start(context.Background()); err == nil {
		t.Fatal("second Start while running should fail")
	}
	// Each stream releases once at start; no clock advance means no
	// further releases, so exactly three results flow.
	for i := 0; i < 3; i++ {
		h.next(t)
	}
	stop()
	stop() // idempotent
	// After stop returns every goroutine has exited: even a full second
	// of virtual time (dozens of periods) must release nothing.
	relBefore := d.Stats().Releases
	if relBefore != 3 {
		t.Fatalf("releases before shutdown = %d, want 3", relBefore)
	}
	h.clk.Advance(time.Second)
	select {
	case res := <-h.results:
		t.Fatalf("completion flowed after stop: %+v", res)
	default:
	}
	if relAfter := d.Stats().Releases; relAfter != relBefore {
		t.Fatalf("releases kept flowing after stop: %d -> %d", relBefore, relAfter)
	}
	// The dispatcher restarts cleanly and releases the set again.
	stop2, err := d.Start(context.Background())
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	for i := 0; i < 3; i++ {
		h.next(t)
	}
	stop2()
	if got := d.Stats().Releases; got != relBefore+3 {
		t.Fatalf("releases after restart = %d, want %d", got, relBefore+3)
	}
}

// TestMissRateOrderingUnderOverload replays the same deadline-constrained
// camera-style workload under each queue discipline on a fake clock — a
// deterministic discrete-event simulation where running a job advances
// virtual time by its cost — and asserts the expected ordering: EDF
// misses least, RM more, FIFO most. Each policy's losses are structural,
// not noise. The heavy "bulk" job blocks everyone equally while running
// (execution is non-preemptive), but only FIFO also serves it ahead of
// younger urgent jobs — the classic priority inversion — costing extra
// "cam" misses; RM additionally starves the long-period tight-deadline
// "lidar" stream behind the cam/aux queue, where EDF jumps it ahead.
// The set runs ~7% under capacity so the ordering reflects discipline
// rather than saturation collapse, yet it exceeds every default
// admission bound — registration needs the explicit override, which is
// the overload the acceptance criterion exercises.
func TestMissRateOrderingUnderOverload(t *testing.T) {
	specs := []StreamSpec{
		{Name: "cam", Period: 60 * time.Millisecond, Cost: 20 * time.Millisecond},
		{Name: "aux", Period: 150 * time.Millisecond, Cost: 30 * time.Millisecond},
		{Name: "lidar", Period: 300 * time.Millisecond, Deadline: 90 * time.Millisecond, Cost: 30 * time.Millisecond},
		{Name: "bulk", Period: 400 * time.Millisecond, Cost: 120 * time.Millisecond},
	}
	replay := func(p Policy) uint64 {
		h := newHarness()
		// The worker hands each job to the driver and blocks until the
		// driver has advanced virtual time by its cost: the clock only
		// moves while every dispatcher goroutine is parked, which makes
		// the whole replay a deterministic simulation.
		started := make(chan Job, 1) // one worker: at most one in flight
		finish := make(chan struct{})
		cfg := h.config(p, func(ctx context.Context, j Job) error {
			// Both channel operations yield to cancellation: at stop the
			// driver is gone, and an unconsumed handoff must not wedge
			// the worker (and with it the dispatcher's shutdown).
			select {
			case started <- j:
			case <-ctx.Done():
				return ctx.Err()
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-finish:
				return nil
			}
		})
		cfg.UtilBound = 1.2
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range specs {
			if _, err := d.Register(sp); err != nil {
				t.Fatalf("%s: register %q: %v", p, sp.Name, err)
			}
		}
		start := h.clk.Now()
		// Mirror the dispatcher's release schedule (stream i releases at
		// start + k*period) so every clock movement can wait until the
		// release loop has caught up to exactly the expected count.
		nextRel := make([]time.Time, len(specs))
		for i := range nextRel {
			nextRel[i] = start
		}
		var rel, seen uint64
		settle := func(now time.Time) {
			for i, sp := range specs {
				for !nextRel[i].After(now) {
					rel++
					nextRel[i] = nextRel[i].Add(sp.Period)
				}
			}
			for d.Stats().Releases < rel {
				runtime.Gosched()
			}
		}
		stop, err := d.Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		settle(start) // the initial release of every stream
		end := start.Add(2400 * time.Millisecond)
		for h.clk.Now().Before(end) {
			if rel > seen {
				// A released job has not resulted yet: it is queued (the
				// worker will shed or start it) or in flight. Either a
				// result or a start arrives without moving the clock.
				select {
				case <-h.results:
					seen++
				case j := <-started:
					h.clk.Advance(j.Stream.Cost())
					settle(h.clk.Now())
					finish <- struct{}{}
				}
			} else {
				// Quiescent: jump exactly to the earliest next release.
				next := nextRel[0]
				for _, v := range nextRel[1:] {
					if v.Before(next) {
						next = v
					}
				}
				h.clk.Advance(next.Sub(h.clk.Now()))
				settle(next)
			}
		}
		stop()
		st := d.Stats()
		t.Logf("%-4s: releases=%d completions=%d misses=%d drops=%d", p, st.Releases, st.Completions, st.Misses, st.Drops)
		return st.Misses
	}
	edf := replay(EDF)
	rm := replay(RM)
	fifo := replay(FIFO)
	if edf > rm {
		t.Errorf("miss ordering violated: edf=%d > rm=%d", edf, rm)
	}
	if rm > fifo {
		t.Errorf("miss ordering violated: rm=%d > fifo=%d", rm, fifo)
	}
}

// TestFakeTimerArmedForAReachedInstantFires is the release loop's race
// with a test that advances the clock: the loop reads the next release
// instant, the test moves the clock past it, and only then is the timer
// re-armed. Arming names the instant, not a delay from a stale reading, so
// the tick is delivered at once instead of a period late.
func TestFakeTimerArmedForAReachedInstantFires(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	timer := clk.NewTimer(time.Hour)
	next := clk.Now().Add(10 * time.Millisecond)
	clk.Advance(20 * time.Millisecond)
	timer.Reset(next)
	select {
	case <-timer.C():
	default:
		t.Fatal("a timer armed for an instant the clock has passed did not fire")
	}
	timer.Reset(clk.Now().Add(time.Millisecond))
	select {
	case <-timer.C():
		t.Fatal("a timer armed for a future instant fired early")
	default:
	}
	clk.Advance(time.Millisecond)
	select {
	case <-timer.C():
	default:
		t.Fatal("the timer did not fire when the clock reached its instant")
	}
}
