package main

import "testing"

func TestCheckSchedule(t *testing.T) {
	// A diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
	edges := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	if err := checkSchedule([]int{0, 1, 1, 2}, 4, 3, edges); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := checkSchedule([]int{0, 0, 0, 0}, 4, 1, edges); err != nil {
		t.Errorf("single-stage schedule rejected: %v", err)
	}
	for name, stage := range map[string][]int{
		"back edge":          {1, 0, 1, 2},
		"stage out of range": {0, 1, 1, 3},
		"negative stage":     {-1, 1, 1, 2},
		"too short":          {0, 1, 1},
	} {
		if err := checkSchedule(stage, 4, 3, edges); err == nil {
			t.Errorf("%s: schedule %v accepted", name, stage)
		}
	}
}
