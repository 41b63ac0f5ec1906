package main

import (
	"fmt"
	"math"
)

// The oracles below recompute each workload's answer in plain Go over
// []float64, sharing no code with the runtime under test: a kernel or
// executor change that alters an answer cannot also alter its reference.

// closeTo is the oracles' comparison: relative tolerance tol with an
// absolute floor of tol for answers near zero.
func closeTo(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// matmulRef returns a[m,k] × b[k,n] with the textbook ijk loop.
func matmulRef(a, b []float64, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func sigmoidRef(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// lstmLossRef runs a standard LSTM (gate order input, forget, candidate,
// output; zero initial state) over x [T, batch, in] and returns the mean
// squared error between the final hidden state and y [batch, units].
func lstmLossRef(x, y, wx, wh, bias []float64, T, batch, in, units int) float64 {
	h := make([]float64, batch*units)
	c := make([]float64, batch*units)
	for t := 0; t < T; t++ {
		zx := matmulRef(x[t*batch*in:(t+1)*batch*in], wx, batch, in, 4*units)
		zh := matmulRef(h, wh, batch, units, 4*units)
		for r := 0; r < batch; r++ {
			for u := 0; u < units; u++ {
				z := func(gate int) float64 {
					j := r*4*units + gate*units + u
					return zx[j] + zh[j] + bias[gate*units+u]
				}
				i, f, cc, o := sigmoidRef(z(0)), sigmoidRef(z(1)), math.Tanh(z(2)), sigmoidRef(z(3))
				k := r*units + u
				c[k] = f*c[k] + i*cc
				h[k] = o * math.Tanh(c[k])
			}
		}
	}
	sum := 0.0
	for k := range h {
		d := h[k] - y[k]
		sum += d * d
	}
	return sum / float64(len(h))
}

// affineLoopRef iterates the loop_dispatch body n times from (0, acc):
// i += 1; acc = acc*a + b. The accumulator repeats the runtime's float64
// operations in order, so it must match bit for bit; the counter's closed
// form is n. The explicit conversion keeps the compiler from fusing the
// multiply and add into one rounding where the runtime makes two.
func affineLoopRef(acc, a, b float64, n int) float64 {
	for i := 0; i < n; i++ {
		acc = float64(acc*a) + b
	}
	return acc
}

// mlpSoftmaxRef is dcfserve's served model: softmax(tanh(x·w1 + b1)·w2)
// for x [rows, dim], returned as [rows][classes].
func mlpSoftmaxRef(x, w1, b1, w2 []float64, rows, dim, classes int) [][]float64 {
	hid := matmulRef(x, w1, rows, dim, dim)
	for i := range hid {
		hid[i] = math.Tanh(hid[i] + b1[i%dim])
	}
	logits := matmulRef(hid, w2, rows, dim, classes)
	out := make([][]float64, rows)
	for r := range out {
		row := logits[r*classes : (r+1)*classes]
		mx := row[0]
		for _, v := range row {
			mx = math.Max(mx, v)
		}
		sum := 0.0
		for j, v := range row {
			row[j] = math.Exp(v - mx)
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		out[r] = row
	}
	return out
}

// checkScores verifies one /predict answer: every row is a distribution
// and equals the reference forward pass.
func checkScores(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d score rows, want %d", len(got), len(want))
	}
	for r := range got {
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("row %d has %d classes, want %d", r, len(got[r]), len(want[r]))
		}
		sum := 0.0
		for j, v := range got[r] {
			sum += v
			if !closeTo(v, want[r][j], 1e-9) {
				return fmt.Errorf("row %d class %d: got %v, want %v", r, j, v, want[r][j])
			}
		}
		if !closeTo(sum, 1, 1e-9) {
			return fmt.Errorf("row %d sums to %v, want 1", r, sum)
		}
	}
	return nil
}

// hopSumRef is cluster_loop's recurrence: t = x*s, then per iteration the
// remote worker applies t*a1+b1 and the driving worker t*a0+b0, elementwise;
// the step fetches the sum of the final tensor.
func hopSumRef(x []float64, s float64, iters int, a1, b1, a0, b0 float64) float64 {
	sum := 0.0
	for _, v := range x {
		t := v * s
		for i := 0; i < iters; i++ {
			t = t*a1 + b1
			t = t*a0 + b0
		}
		sum += t
	}
	return sum
}
