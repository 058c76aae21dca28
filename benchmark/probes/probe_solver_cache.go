package main

import (
	"context"

	"respect"
)

// solver.cache_hit_us: a fingerprint-cache hit through the facade's cached
// backend; what zoo_hit pays per request inside the solver layer.
func init() {
	register("solver_cache", func(r *recorder) error {
		ctx := context.Background()
		var err error
		d := r.timeOp("solver.cache_hit", func() {
			_, err = respect.ScheduleWith(ctx, "heur", r.in.resnet50, 4)
		})
		r.metric("solver.cache_hit_us", us(d))
		return err
	})
}
