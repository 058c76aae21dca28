package main

import (
	"context"

	"respect"
)

// solver.batch_graphs_per_s: 256 distinct 30-node graphs through the heur
// backend with two workers, cache emptied before every batch.
func init() {
	register("solver_batch", func(r *recorder) error {
		ctx := context.Background()
		var err error
		d := r.timeOp("solver.batch", func() {
			respect.ResetScheduleCache()
			_, err = respect.ScheduleBatch(ctx, r.in.synth30, 4, "heur", 2)
		})
		r.metric("solver.batch_graphs_per_s", float64(len(r.in.synth30))/d.Seconds())
		return err
	})
}
