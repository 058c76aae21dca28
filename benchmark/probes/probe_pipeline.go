package main

import "respect"

// pipeline.run_us: the discrete-event pipeline executor, 100 inferences
// of ResNet50 through bounded inter-stage queues.
func init() {
	register("pipeline", func(r *recorder) error {
		hw := respect.CoralHW()
		var err error
		r.metric("pipeline.run_us", us(r.timeOp("pipeline.run", func() {
			_, err = respect.ExecutePipeline(r.in.resnet50, r.in.heurSched, hw, 100, 2)
		})))
		return err
	})
}
