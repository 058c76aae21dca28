package main

import "respect"

// models.load_us: building a zoo graph by name, which the server does on
// every by-name request.
func init() {
	register("models", func(r *recorder) error {
		var err error
		d := r.timeOp("models.load", func() {
			_, err = respect.LoadModel("ResNet50")
		})
		r.metric("models.load_us", us(d))
		return err
	})
}
