package main

import (
	"io"

	"respect/internal/metrics"
)

// metrics.*: one histogram observation (several per request) and one
// /metrics scrape of a registry the size of the server's.
func init() {
	register("metrics", func(r *recorder) error {
		reg := metrics.NewRegistry()
		hist := reg.HistogramVec("probe_request_duration_seconds", "Probe histogram family.", nil, "class", "outcome")
		for _, class := range []string{"interactive", "batch", "best-effort"} {
			for _, outcome := range []string{"ok", "invalid", "error", "timeout"} {
				hist.With(class, outcome).Observe(0.001)
			}
		}
		h := hist.With("interactive", "ok")
		r.metric("metrics.observe_ns", float64(r.timeOp("metrics.observe", func() { h.Observe(0.0007) })))
		var err error
		r.metric("metrics.write_text_us", us(r.timeOp("metrics.write_text", func() { err = reg.WriteText(io.Discard) })))
		return err
	})
}
