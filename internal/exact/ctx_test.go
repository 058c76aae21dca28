package exact

import (
	"context"
	"testing"
	"time"

	"respect/internal/ilp"
	"respect/internal/models"
)

func TestSolveCtxCancellation(t *testing.T) {
	g := models.MustLoad("InceptionResNetv2")
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	// TieBreakCross makes the search long enough that only cancellation can
	// end it this fast.
	res := SolveCtx(ctx, g, 6, Options{TieBreakCross: true})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation ignored: solve ran %v", elapsed)
	}
	if res.Optimal {
		t.Fatal("a cancelled solve must not claim optimality")
	}
	// The incumbent must still be a valid deployable-grade schedule.
	if err := res.Schedule.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSolveCtxDeadlineIntersectsTimeout(t *testing.T) {
	g := models.MustLoad("InceptionResNetv2")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := SolveCtx(ctx, g, 6, Options{TieBreakCross: true})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ctx deadline ignored: solve ran %v", elapsed)
	}
	if err := res.Schedule.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSolveILPCtxCancellation(t *testing.T) {
	g := models.MustLoad("ResNet152")
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err := SolveILPCtx(ctx, g, 6, ilp.Options{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation ignored: MILP ran %v", elapsed)
	}
	// Either an incumbent surfaced in time (nil error) or the cut-off is
	// reported; both are acceptable — blocking is not.
	_ = err
}
