package main

import "respect/internal/embed"

// embed.graph_us: the per-node feature rows the pointer network reads,
// for ResNet50.
func init() {
	register("embed", func(r *recorder) error {
		r.metric("embed.graph_us", us(r.timeOp("embed.graph", func() {
			embed.Graph(r.in.resnet50, r.in.ecfg)
		})))
		return nil
	})
}
