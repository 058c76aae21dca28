package main

import (
	"bytes"
	"io"

	"respect/internal/graph"
)

// graph.*: decoding and encoding the ResNet50 wire document, per KiB of
// document; decoding is what an inline request costs before any solve.
func init() {
	register("graph_json", func(r *recorder) error {
		doc := r.in.resnet50Doc
		kb := float64(len(doc)) / 1024
		var err error
		read := func() { _, err = graph.ReadJSON(bytes.NewReader(doc)) }
		d := r.timeOp("graph.read_json", read)
		if err != nil {
			return err
		}
		r.metric("graph.read_json_us_per_kb", us(d)/kb)
		r.metric("graph.read_json_allocs_per_op", allocsPerOp(20, read))
		d = r.timeOp("graph.write_json", func() { err = r.in.resnet50.WriteJSON(io.Discard) })
		r.metric("graph.write_json_us_per_kb", us(d)/kb)
		return err
	})
}
