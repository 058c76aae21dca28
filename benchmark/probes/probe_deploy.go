package main

import "respect/internal/deploy"

// deploy.partition_us: splitting ResNet50 into per-stage sub-models with
// quantized weights, the step after a schedule is accepted.
func init() {
	register("deploy", func(r *recorder) error {
		var err error
		r.metric("deploy.partition_us", us(r.timeOp("deploy.partition", func() {
			_, err = deploy.Partition(r.in.resnet50, r.in.heurSched)
		})))
		return err
	})
}
