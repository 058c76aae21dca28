package main

import (
	"context"

	"respect"
)

// compiler.*: the Edge TPU compiler baseline on ResNet50: its partition
// alone, and the full emulated flow whose time is the paper's Figure 3
// baseline.
func init() {
	register("compiler", func(r *recorder) error {
		b, err := respect.LookupBackend("compiler")
		if err != nil {
			return err
		}
		ctx := context.Background()
		r.metric("compiler.schedule_us", us(r.timeOp("compiler.schedule", func() {
			_, err = b.Schedule(ctx, r.in.resnet50, 4)
		})))
		if err != nil {
			return err
		}
		r.metric("compiler.full_ms", ms(r.timeOp("compiler.full", func() {
			_, _, err = respect.CompileFull(r.in.resnet50, 4)
		})))
		return err
	})
}
