package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"respect/internal/graph"
	"respect/internal/sched"
)

// raceSlack is how late past escalateAfter an escalated member may start
// on a loaded machine (or under -race) before the test calls it held back.
const raceSlack = 250 * time.Millisecond

// raceGraph is a two-node chain and good a valid two-stage schedule of it.
func raceGraph() (*graph.Graph, sched.Schedule) {
	return chain(50, 50), sched.Schedule{NumStages: 2, Stage: []int{0, 1}}
}

// TestRaceOfOneAllocs: a race of one is a plain call of its member. It
// may allocate only the Outcomes slice and the caller's backend slice on
// top of what solve allocates for the same member and graph: no derived
// context, racer or escalation timer. The member returns a fixed
// schedule: a backend that borrows pooled scratch (heur, through the
// stage DP and PostProcess) allocates a varying amount under the race
// detector, which drops pooled items at random.
func TestRaceOfOneAllocs(t *testing.T) {
	g, good := raceGraph()
	member := fixed("one", good)
	ctx := context.Background()
	alone := testing.AllocsPerRun(200, func() {
		solve(ctx, member, g, 2, time.Now())
	})
	race := testing.AllocsPerRun(200, func() {
		if _, err := PortfolioOpt(ctx, []Scheduler{member}, g, 2, PortfolioOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if race > alone+2 {
		t.Fatalf("a race of one allocates %v times, its member's solve %v: want at most 2 more", race, alone)
	}
}

// TestRaceRunsFastMembersInOrder: members that finish well inside
// escalateAfter run one after another on the caller's goroutine, in input
// order. A member that started before escalateAfter ran inline, and so
// did every member before it, so it started after the previous one ended.
func TestRaceRunsFastMembersInOrder(t *testing.T) {
	g, good := raceGraph()
	members := []Scheduler{fixed("a", good), fixed("b", good), fixed("c", good), fixed("d", good)}
	for run := 0; run < 20; run++ {
		res, err := Portfolio(context.Background(), members, g, 2)
		if err != nil {
			t.Fatal(err)
		}
		outs := res.Outcomes
		if outs[0].Started != 0 {
			t.Fatalf("run %d: member 0 started at %v, want 0", run, outs[0].Started)
		}
		for i := 1; i < len(outs); i++ {
			if outs[i].Started >= escalateAfter {
				break // escalated: the machine held the caller past the timer
			}
			if prevEnd := outs[i-1].Started + outs[i-1].Elapsed; outs[i].Started < prevEnd {
				t.Fatalf("run %d: member %d started at %v, before member %d ended at %v",
					run, i, outs[i].Started, i-1, prevEnd)
			}
		}
		if !outs[0].Winner {
			t.Fatalf("run %d: equal costs must go to member 0: %+v", run, outs)
		}
	}
}

// TestRaceEscalatesBlockedMember: a member blocked on its context does
// not hold back the one after it. That one starts on its own goroutine
// about escalateAfter into the race, returns its schedule while member 0
// is still blocked, and patience then cancels member 0.
func TestRaceEscalatesBlockedMember(t *testing.T) {
	g, good := raceGraph()
	blockedDone := make(chan struct{})
	blocked := NewFunc("blocked", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		defer close(blockedDone)
		<-ctx.Done()
		return sched.Schedule{}, ctx.Err()
	})
	var whileBlocked atomic.Bool
	next := NewFunc("next", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		select {
		case <-blockedDone:
		default:
			whileBlocked.Store(true)
		}
		return good.Clone(), nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := PortfolioOpt(ctx, []Scheduler{blocked, next}, g, 2, PortfolioOptions{Patience: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "next" {
		t.Fatalf("winner %q, want next", res.Backend)
	}
	if s := res.Outcomes[1].Started; s < escalateAfter || s > escalateAfter+raceSlack {
		t.Fatalf("member 1 started at %v, want about escalateAfter (%v) into the race", s, escalateAfter)
	}
	if !whileBlocked.Load() {
		t.Fatal("member 1 ran only after member 0 returned")
	}
	if o := res.Outcomes[0]; !errors.Is(o.Err, context.Canceled) {
		t.Fatalf("member 0 err = %v, want context.Canceled by patience", o.Err)
	}
	if ctx.Err() != nil {
		t.Fatal("the race lasted until the test's own deadline")
	}
}

// TestRaceEscalatedFirstResultArmsPatience: the caller's inline member
// fails, and the first valid schedule comes from an escalated member
// after that. It must still arm patience, which cancels the third member,
// blocked on its context; otherwise only the caller's deadline ends the race.
func TestRaceEscalatedFirstResultArmsPatience(t *testing.T) {
	g, good := raceGraph()
	firstStarted, thirdStarted, inlineDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	inline := NewFunc("inline", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		defer close(inlineDone)
		<-firstStarted
		<-thirdStarted
		return sched.Schedule{}, errors.New("inline member fails")
	})
	first := NewFunc("first", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		close(firstStarted)
		<-inlineDone
		return good.Clone(), nil
	})
	third := NewFunc("third", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		close(thirdStarted)
		<-ctx.Done()
		return sched.Schedule{}, ctx.Err()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := PortfolioOpt(ctx, []Scheduler{inline, first, third}, g, 2, PortfolioOptions{Patience: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "first" {
		t.Fatalf("winner %q, want first", res.Backend)
	}
	if o := res.Outcomes[2]; !errors.Is(o.Err, context.Canceled) {
		t.Fatalf("third member err = %v, want context.Canceled by patience", o.Err)
	}
	if ctx.Err() != nil {
		t.Fatal("patience was never armed: the race lasted until the test's own deadline")
	}
}

// TestRacePanicInlineIsContained: a member that panics on the caller's
// goroutine loses the race, and every member after it still runs.
func TestRacePanicInlineIsContained(t *testing.T) {
	g, good := raceGraph()
	var ran atomic.Int64
	faulty := NewFunc("faulty", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		ran.Add(1)
		panic("inline fault")
	})
	counted := func(name string) Scheduler {
		return NewFunc(name, func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
			ran.Add(1)
			return good.Clone(), nil
		})
	}
	res, err := Portfolio(context.Background(), []Scheduler{faulty, counted("b"), counted("c")}, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	var panicked *PanicError
	if !errors.As(res.Outcomes[0].Err, &panicked) || panicked.Value != "inline fault" {
		t.Fatalf("member 0 outcome %+v, want a PanicError", res.Outcomes[0])
	}
	if n := ran.Load(); n != 3 {
		t.Fatalf("%d members ran, want 3", n)
	}
	if res.Backend != "b" || res.Outcomes[2].Err != nil {
		t.Fatalf("outcomes %+v, want b winning and c valid", res.Outcomes)
	}
}

// TestRaceHandOffStress runs many concurrent races whose members wait
// from nothing to twice escalateAfter, so the escalation timer fires
// before, during and after the caller's inline members and races the
// caller for the next one. Every member of every race runs exactly once
// and reports its own outcome.
func TestRaceHandOffStress(t *testing.T) {
	g, good := raceGraph()
	const workers, races, members = 8, 40, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < races; r++ {
				var calls [members]atomic.Int64
				backends := make([]Scheduler, members)
				for i := range backends {
					wait := time.Duration(rng.Int63n(int64(2 * escalateAfter)))
					if rng.Intn(3) == 0 {
						wait = 0
					}
					backends[i] = NewFunc(fmt.Sprintf("m%d", i), func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
						calls[i].Add(1)
						waitCtx, cancel := context.WithTimeout(ctx, wait)
						defer cancel()
						<-waitCtx.Done()
						return good.Clone(), nil
					})
				}
				opts := PortfolioOptions{}
				if r%2 == 1 {
					opts.Patience = escalateAfter / 2
				}
				res, err := PortfolioOpt(context.Background(), backends, g, 2, opts)
				if err != nil {
					t.Errorf("worker %d race %d: %v", seed, r, err)
					return
				}
				for i := range calls {
					if n := calls[i].Load(); n != 1 {
						t.Errorf("worker %d race %d: member %d ran %d times", seed, r, i, n)
						return
					}
					if o := res.Outcomes[i]; o.Backend != backends[i].Name() || o.Err != nil {
						t.Errorf("worker %d race %d: outcome %d is %+v", seed, r, i, o)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
