package main

import (
	"context"

	"respect"
)

// solver.portfolio_us: one uncached race of the interactive portfolio
// (heur + compiler) on ResNet50: goroutine fan-out, validation, cost
// evaluation and winner selection around two fast members.
func init() {
	register("solver_portfolio", func(r *recorder) error {
		ctx := context.Background()
		var err error
		d := r.timeOp("solver.portfolio", func() {
			_, err = respect.SchedulePortfolio(ctx, r.in.resnet50, 4, "heur", "compiler")
		})
		r.metric("solver.portfolio_us", us(d))
		return err
	})
}
