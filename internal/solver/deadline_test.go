package solver

import (
	"context"
	"strings"
	"testing"
	"time"

	"respect/internal/models"
)

// TestBackendsHonourDeadline holds every default-registered backend to the
// Scheduler contract: once ctx is done it returns promptly, and a schedule
// it returns past the deadline without a proof is reported as truncated.
// Each backend gets a 20 ms deadline on every zoo model at 6 stages.
//
// The bound is the deadline plus 100 ms. On a 2-CPU x86-64 host, over
// three runs, the worst return was 1.3 ms past the deadline
// (exact-ilp-grade on Inception_v3), and 7.3 ms past it under -race; heur
// and compiler finish every model before the deadline. The slack
// leaves room for a loaded machine running the whole suite, and stays
// well under what a backend that ignores ctx costs: the full compiler
// flow, once registered as compiler-full, returned 0.21 s (DenseNet121) to
// 4.2 s (VGG16) after the same deadline, on 13 of the 14 models.
func TestBackendsHonourDeadline(t *testing.T) {
	const (
		deadline = 20 * time.Millisecond
		bound    = deadline + 100*time.Millisecond
	)
	for _, name := range Names() {
		if strings.HasPrefix(name, "rl") {
			continue // model-bound; the decoders' deadline tests live with them
		}
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range models.Names() {
			g := models.MustLoad(model)
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			start := time.Now()
			s, info, err := ScheduleInfo(ctx, b, g, 6)
			elapsed := time.Since(start)
			late := ctx.Err() != nil
			cancel()
			if elapsed > bound {
				t.Errorf("%s on %s: returned %v after a %v deadline, want within %v", name, model, elapsed, deadline, bound)
			}
			if err != nil {
				continue
			}
			if verr := s.Validate(g); verr != nil {
				t.Errorf("%s on %s: %v", name, model, verr)
			}
			if late && !info.OptimalityProven && !info.Truncated {
				t.Errorf("%s on %s: an unproven schedule returned past the deadline is not reported truncated", name, model)
			}
		}
	}
}
