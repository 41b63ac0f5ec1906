//go:build 386 || amd64 || amd64p32 || alpha || arm || arm64 || loong64 || mipsle || mips64le || mips64p32le || nios2 || ppc64le || riscv || riscv64 || sh || wasm

package rendezvous

import (
	"bufio"
	"io"
	"unsafe"

	"repro/internal/tensor"
)

// The wire is little-endian and so is this host (the build constraint is
// encoding/binary's list): a Float or Int payload is the tensor's backing
// array as it lies in memory, written and read as such, with no pass over
// its elements on either side. frame_be.go is the big-endian twin.

// appendNumeric returns buf unchanged and v's backing array as the payload.
func appendNumeric(buf []byte, v *tensor.Tensor) ([]byte, []byte) { return buf, backing(v) }

// readNumeric fills the Float or Int tensor t with the next bytes of r: what
// r has buffered is copied, and the rest is read from the connection
// straight into t.
func readNumeric(r *bufio.Reader, t *tensor.Tensor) error {
	_, err := io.ReadFull(r, backing(t))
	return err
}

// backing is the backing array of a Float or Int tensor, as bytes.
func backing(t *tensor.Tensor) []byte {
	if t.DType() == tensor.Float {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t.F))), 8*len(t.F))
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t.I))), 8*len(t.I))
}
