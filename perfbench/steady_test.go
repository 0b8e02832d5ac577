package main

import "testing"

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values from Python: statistics.quantiles(data, n=4).
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTrimmedMeanDropsTheOuterFifths(t *testing.T) {
	if got := trimmedMean([]float64{1000, 1, 2, 3, 4, 5, 6, 7, 8, -1000}); got != 4.5 {
		t.Errorf("trimmedMean = %v, want 4.5", got)
	}
	if got := trimmedMean([]float64{7}); got != 7 {
		t.Errorf("trimmedMean of one value = %v, want 7", got)
	}
}
