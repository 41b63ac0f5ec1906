package tensor

//go:noescape
func transcRunAVX2(op int, out, in *float64, n int) int

// transcAVX2 is transcGo in YMM lanes (transc_amd64.s), four elements to a
// register. The assembly stops before a block of four it leaves to the Go
// loop (one with a lane off exp's fast path); the Go loop computes that
// block, or the last one to three elements, and the assembly goes on.
func transcAVX2(op elemOp, out, in []float64) {
	in = in[:len(out)]
	fn := transcFns[op]
	for i := 0; i < len(out); {
		if n := (len(out) - i) &^ 3; n > 0 {
			i += transcRunAVX2(int(op), &out[i], &in[i], n)
		}
		for end := min(i+4, len(out)); i < end; i++ {
			out[i] = fn(in[i])
		}
	}
}
