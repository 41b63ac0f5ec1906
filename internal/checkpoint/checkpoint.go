// Package checkpoint implements the coarse-grained checkpointing the
// paper's failure model relies on (§3): iterative programs run to
// completion between checkpoints of the session's variables, with no
// fine-grained fault tolerance inside a step. Variables are serialized with
// encoding/gob inside a length- and checksum-framed envelope, so a
// truncated or corrupted file is reported as such instead of producing a
// garbled decode (or a partial restore).
//
// The package has two layers:
//
//   - Single-process snapshots: Save/Restore (streams) and
//     SaveFile/RestoreFile (durable files, written atomically).
//   - Cluster checkpoints (manifest.go): per-worker shard files plus a
//     manifest keyed by graph signature + step, the on-disk format behind
//     distrib.TCPCluster.Checkpoint and distrib.Fleet.Resume.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// snapshot is the serialized form of one variable.
type snapshot struct {
	Name  string
	DType int
	Shape []int
	F     []float64
	I     []int64
	B     []bool
	S     []string
}

// file is the serialized checkpoint payload (inside the framed envelope).
type file struct {
	Version int
	Vars    []snapshot
}

// magic opens every framed checkpoint; a file that does not start with it
// is not a checkpoint at all (as opposed to a damaged one).
var magic = []byte("DCFCKPT1")

// Capture snapshots every initialized variable in the session container as
// a name -> value map. Variable values are immutable once published (every
// assignment installs a fresh tensor), so the returned map is a consistent
// point-in-time snapshot as long as no step is mutating variables
// concurrently — the caller provides that quiescence (§3: checkpoints
// happen at step boundaries).
func Capture(sess *ops.Resources) (map[string]*tensor.Tensor, error) {
	vars := map[string]*tensor.Tensor{}
	for _, name := range sess.Names() {
		if !strings.HasPrefix(name, "var/") {
			continue
		}
		res, _ := sess.Lookup(name)
		v, ok := res.(*ops.VariableRes)
		if !ok {
			continue
		}
		val, err := v.Value()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: variable %s: %w", name, err)
		}
		vars[strings.TrimPrefix(name, "var/")] = val
	}
	return vars, nil
}

// Apply assigns every captured variable into the session container,
// creating missing variables and overwriting existing ones.
func Apply(vars map[string]*tensor.Tensor, sess *ops.Resources) error {
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res := sess.LookupOrCreate("var/"+name, func() ops.Resource {
			return ops.NewVariable(name)
		})
		v, ok := res.(*ops.VariableRes)
		if !ok {
			return fmt.Errorf("checkpoint: resource %s is not a variable", name)
		}
		v.Set(vars[name])
	}
	return nil
}

// Encode writes a variable map to w in the framed checkpoint format:
// magic, payload length, CRC-32 of the payload, then the gob payload.
// Variables are sorted by name so identical states produce identical bytes.
func Encode(w io.Writer, vars map[string]*tensor.Tensor) error {
	f := file{Version: 1}
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		val := vars[name]
		if val == nil {
			return fmt.Errorf("checkpoint: variable %s has nil value", name)
		}
		f.Vars = append(f.Vars, snapshot{
			Name:  name,
			DType: int(val.DType()),
			Shape: val.Shape(),
			F:     val.F,
			I:     val.I,
			B:     val.B,
			S:     val.S,
		})
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(f); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	var hdr [20]byte
	copy(hdr[:8], magic)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(payload.Len()))
	binary.BigEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	return nil
}

// Decode reads a framed checkpoint back into a variable map. Truncated or
// corrupted input is reported explicitly (checksum and length are verified
// before the payload is decoded), never as a panic or a partial map.
func Decode(r io.Reader) (map[string]*tensor.Tensor, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated header (not a checkpoint?): %w", err)
	}
	if !bytes.Equal(hdr[:8], magic) {
		return nil, fmt.Errorf("checkpoint: bad magic %q: not a checkpoint file", hdr[:8])
	}
	n := binary.BigEndian.Uint64(hdr[8:16])
	const maxPayload = 1 << 40
	if n > maxPayload {
		return nil, fmt.Errorf("checkpoint: implausible payload length %d (corrupt header)", n)
	}
	// Read incrementally rather than preallocating n bytes: the length
	// field is untrusted, and a lying header over a short stream must not
	// allocate gigabytes before the truncation is noticed.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading payload: %w", err)
	}
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("checkpoint: truncated payload (%d bytes expected, %d present)", n, len(payload))
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(hdr[16:20]); got != want {
		return nil, fmt.Errorf("checkpoint: corrupt payload (crc %08x, want %08x)", got, want)
	}
	var f file
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&f); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if f.Version != 1 {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", f.Version)
	}
	vars := make(map[string]*tensor.Tensor, len(f.Vars))
	for _, s := range f.Vars {
		// The decoded tensor is untrusted even after the CRC passes (the
		// file may have been *encoded* corrupt): tensor.Decoded validates
		// it.
		val, err := tensor.Decoded(s.DType, s.Shape, s.F, s.I, s.B, s.S)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: variable %s: %w", s.Name, err)
		}
		vars[s.Name] = val
	}
	return vars, nil
}

// Restore reads a checkpoint and assigns every variable into the session
// container (creating missing variables).
func Restore(r io.Reader, sess *ops.Resources) error {
	vars, err := Decode(r)
	if err != nil {
		return err
	}
	return Apply(vars, sess)
}

// SaveFile durably writes a checkpoint to path. The bytes go to a
// same-directory temp file first, which is fsynced before an atomic rename
// over path (and the directory is fsynced so the rename itself is durable)
// — a crash at any point leaves either the complete previous checkpoint or
// the complete new one, never a truncated mix.
func SaveFile(path string, sess *ops.Resources) error {
	vars, err := Capture(sess)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := Encode(&buf, vars); err != nil {
		return err
	}
	return WriteFileAtomic(path, buf.Bytes())
}

// RestoreFile reads a checkpoint from path.
func RestoreFile(path string, sess *ops.Resources) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Restore(f, sess)
}

// WriteFileAtomic durably writes data to path: temp file in the same
// directory, fsync, rename, directory fsync. The previous contents of path
// remain intact until the replacement is fully on disk.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives a crash.
// Filesystems that do not support directory fsync (some CI overlays) make
// it a no-op rather than an error.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
