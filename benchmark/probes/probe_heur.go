package main

import (
	"context"

	"respect"
)

// heur.*: the DP-segmentation heuristic, the interactive class's winner
// on most zoo graphs, on ResNet50.
func init() {
	register("heur", func(r *recorder) error {
		b, err := respect.LookupBackend("heur")
		if err != nil {
			return err
		}
		ctx := context.Background()
		op := func() { _, err = b.Schedule(ctx, r.in.resnet50, 4) }
		r.metric("heur.schedule_us", us(r.timeOp("heur.schedule", op)))
		r.metric("heur.allocs_per_op", allocsPerOp(20, op))
		return err
	})
}
