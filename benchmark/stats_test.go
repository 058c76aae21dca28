package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, tc := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{9, 1, 5}, 50); got != 5 {
		t.Errorf("percentile must sort a copy: got %v, want 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample reads %v, want 0", got)
	}
	// 1000 samples: p95 leaves exactly 50 beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 95); got != 950 {
		t.Errorf("p95 of 1..1000 = %v, want 950", got)
	}
}
