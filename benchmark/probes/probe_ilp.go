package main

import (
	"context"
	"time"

	"respect"
)

// ilp.grade_ms: the exact backend with the cross-traffic tie-break (the
// paper's joint formulation, the best-effort class's member) on ResNet50,
// under a one-second budget.
func init() {
	register("ilp", func(r *recorder) error {
		b, err := respect.LookupBackend("exact-ilp-grade")
		if err != nil {
			return err
		}
		d := r.timeOp("ilp.grade", func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_, err = b.Schedule(ctx, r.in.resnet50, 4)
		})
		r.metric("ilp.grade_ms", ms(d))
		return err
	})
}
