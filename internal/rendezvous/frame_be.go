//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64

package rendezvous

import (
	"bufio"
	"math"

	"repro/internal/tensor"
)

// The wire is little-endian and this host is not (the build constraint is
// encoding/binary's list): a Float or Int payload is encoded and decoded one
// element at a time. frame_le.go is the path every other host takes.

// appendNumeric appends v's elements to buf and returns no separate payload.
func appendNumeric(buf []byte, v *tensor.Tensor) ([]byte, []byte) {
	for _, x := range v.F {
		buf = le.AppendUint64(buf, math.Float64bits(x))
	}
	for _, x := range v.I {
		buf = le.AppendUint64(buf, uint64(x))
	}
	return buf, nil
}

// readNumeric fills the Float or Int tensor t with the next bytes of r,
// decoded out of r's buffer in place.
func readNumeric(r *bufio.Reader, t *tensor.Tensor) error {
	if t.DType() == tensor.Float {
		return readEach(r, 8*len(t.F), 8, func(b []byte, at int) {
			dst := t.F[at : at+len(b)/8]
			for ; len(dst) >= 4; dst, b = dst[4:], b[32:] { // 4 at a time: ~2x
				dst[0] = math.Float64frombits(le.Uint64(b[0:8]))
				dst[1] = math.Float64frombits(le.Uint64(b[8:16]))
				dst[2] = math.Float64frombits(le.Uint64(b[16:24]))
				dst[3] = math.Float64frombits(le.Uint64(b[24:32]))
			}
			for i := range dst {
				dst[i] = math.Float64frombits(le.Uint64(b[8*i:]))
			}
		})
	}
	return readEach(r, 8*len(t.I), 8, func(b []byte, at int) {
		for i, dst := 0, t.I[at:at+len(b)/8]; i < len(dst); i++ {
			dst[i] = int64(le.Uint64(b[8*i:]))
		}
	})
}
