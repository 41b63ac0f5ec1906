package checkpoint

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ops"
	"repro/internal/tensor"
)

func setVar(t *testing.T, sess *ops.Resources, name string, v *tensor.Tensor) {
	t.Helper()
	res := sess.LookupOrCreate("var/"+name, func() ops.Resource { return ops.NewVariable(name) })
	res.(*ops.VariableRes).Set(v)
}

func getVar(t *testing.T, sess *ops.Resources, name string) *tensor.Tensor {
	t.Helper()
	res, ok := sess.Lookup("var/" + name)
	if !ok {
		t.Fatalf("variable %s missing", name)
	}
	v, err := res.(*ops.VariableRes).Value()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSaveRestoreRoundtrip(t *testing.T) {
	src := ops.NewResources()
	setVar(t, src, "w", tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2))
	setVar(t, src, "step", tensor.ScalarInt(42))
	setVar(t, src, "mask", tensor.FromBools([]bool{true, false}, 2))

	var buf bytes.Buffer
	if err := save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := ops.NewResources()
	if err := Restore(&buf, dst); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(getVar(t, dst, "w"), tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2)) {
		t.Fatal("w mismatch")
	}
	if getVar(t, dst, "step").ScalarIntValue() != 42 {
		t.Fatal("step mismatch")
	}
	if getVar(t, dst, "mask").B[1] {
		t.Fatal("mask mismatch")
	}
}

func TestRestoreOverwritesExisting(t *testing.T) {
	src := ops.NewResources()
	setVar(t, src, "w", tensor.Scalar(1))
	var buf bytes.Buffer
	if err := save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := ops.NewResources()
	setVar(t, dst, "w", tensor.Scalar(999))
	if err := Restore(&buf, dst); err != nil {
		t.Fatal(err)
	}
	if getVar(t, dst, "w").ScalarValue() != 1 {
		t.Fatal("restore did not overwrite")
	}
}

func TestSaveFileRestoreFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	src := ops.NewResources()
	setVar(t, src, "w", tensor.FromFloats([]float64{7}, 1))
	if err := SaveFile(path, src); err != nil {
		t.Fatal(err)
	}
	dst := ops.NewResources()
	if err := RestoreFile(path, dst); err != nil {
		t.Fatal(err)
	}
	if getVar(t, dst, "w").F[0] != 7 {
		t.Fatal("file roundtrip")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	dst := ops.NewResources()
	if err := Restore(bytes.NewBufferString("not a checkpoint"), dst); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestSaveSkipsUninitialized(t *testing.T) {
	src := ops.NewResources()
	src.LookupOrCreate("var/empty", func() ops.Resource { return ops.NewVariable("empty") })
	var buf bytes.Buffer
	if err := save(&buf, src); err == nil {
		t.Fatal("expected error for uninitialized variable")
	}
}

// TestRoundtripEveryDType checks that every dtype — including empty
// tensors, which have a shape but no payload — survives Save/Restore
// bit-identically.
func TestRoundtripEveryDType(t *testing.T) {
	cases := map[string]*tensor.Tensor{
		"f":       tensor.FromFloats([]float64{1.5, -2.25, 0, 1e300}, 2, 2),
		"f_empty": tensor.FromFloats(nil, 0),
		"i":       tensor.FromInts([]int64{-9223372036854775808, 9223372036854775807, 0}, 3),
		"i_empty": tensor.FromInts(nil, 0, 3),
		"b":       tensor.FromBools([]bool{true, false, true}, 3),
		"b_empty": tensor.FromBools(nil, 0),
		"s":       tensor.FromStrings([]string{"", "héllo", "a\x00b"}, 3),
		"s_empty": tensor.FromStrings(nil, 0),
	}
	src := ops.NewResources()
	for name, v := range cases {
		setVar(t, src, name, v)
	}
	var buf bytes.Buffer
	if err := save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := ops.NewResources()
	if err := Restore(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for name, want := range cases {
		got := getVar(t, dst, name)
		if got.DType() != want.DType() {
			t.Fatalf("%s: dtype %v, want %v", name, got.DType(), want.DType())
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("%s: got %v, want %v", name, got, want)
		}
		if len(got.Shape()) != len(want.Shape()) {
			t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
		}
	}
}

// TestRestoreTruncated: a checkpoint cut off at any point must fail with a
// clear truncation/corruption error, never panic or partially restore.
func TestRestoreTruncated(t *testing.T) {
	src := ops.NewResources()
	setVar(t, src, "w", tensor.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3))
	setVar(t, src, "name", tensor.FromStrings([]string{"x"}, 1))
	var buf bytes.Buffer
	if err := save(&buf, src); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 3, 8, 19, 20, len(full) / 2, len(full) - 1} {
		dst := ops.NewResources()
		err := Restore(bytes.NewReader(full[:cut]), dst)
		if err == nil {
			t.Fatalf("restore of %d/%d bytes succeeded", cut, len(full))
		}
		if !strings.Contains(err.Error(), "checkpoint:") {
			t.Fatalf("cut %d: unhelpful error %v", cut, err)
		}
		if len(dst.Names()) != 0 {
			t.Fatalf("cut %d: partial restore created %v", cut, dst.Names())
		}
	}
}

// TestRestoreCorrupt: a bit flip anywhere in the payload is caught by the
// checksum before gob ever sees the bytes.
func TestRestoreCorrupt(t *testing.T) {
	src := ops.NewResources()
	setVar(t, src, "w", tensor.FromFloats([]float64{7, 8, 9}, 3))
	var buf bytes.Buffer
	if err := save(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, pos := range []int{20, 25, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x40
		err := Restore(bytes.NewReader(bad), ops.NewResources())
		if err == nil {
			t.Fatalf("flip at %d: restore succeeded", pos)
		}
		if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "decode") {
			t.Fatalf("flip at %d: error does not name corruption: %v", pos, err)
		}
	}
}

// TestSaveFileKeepsPreviousOnFailure: writing over an existing checkpoint
// goes through a temp file, so the old file survives until the new one is
// fully durable (and garbage in the directory never shadows it).
func TestSaveFileAtomicReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	src := ops.NewResources()
	setVar(t, src, "w", tensor.Scalar(1))
	if err := SaveFile(path, src); err != nil {
		t.Fatal(err)
	}
	setVar(t, src, "w", tensor.Scalar(2))
	if err := SaveFile(path, src); err != nil {
		t.Fatal(err)
	}
	dst := ops.NewResources()
	if err := RestoreFile(path, dst); err != nil {
		t.Fatal(err)
	}
	if getVar(t, dst, "w").ScalarValue() != 2 {
		t.Fatal("second save not visible")
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want just the checkpoint", len(ents))
	}
}

func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	aVars := map[string]*tensor.Tensor{"wA/x": tensor.Scalar(1), "shared": tensor.ScalarInt(5)}
	bVars := map[string]*tensor.Tensor{"wB/y": tensor.FromFloats([]float64{1, 2}, 2)}
	sa, err := WriteShard(dir, 10, "wA", aVars)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := WriteShard(dir, 10, "wB", bVars)
	if err != nil {
		t.Fatal(err)
	}
	sig := GraphSig([]string{"wA/x", "shared", "wB/y"})
	if err := WriteManifest(dir, &Manifest{Sig: sig, Step: 10, Shards: []Shard{sa, sb}}); err != nil {
		t.Fatal(err)
	}
	m, sd, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Step != 10 || m.Sig != sig {
		t.Fatalf("manifest step=%d sig=%x, want 10/%x", m.Step, m.Sig, sig)
	}
	state, err := LoadState(sd, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 3 || state["shared"].ScalarIntValue() != 5 {
		t.Fatalf("state %v", state)
	}
}

// TestManifestPruneKeepsPrevious: after publishing step N, the step-N and
// immediately previous checkpoints remain; older ones are pruned.
func TestManifestPruneKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	vars := map[string]*tensor.Tensor{"v": tensor.Scalar(1)}
	for _, step := range []uint64{5, 10, 15} {
		s, err := WriteShard(dir, step, "wA", vars)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteManifest(dir, &Manifest{Sig: 1, Step: step, Shards: []Shard{s}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "step-5")); !os.IsNotExist(err) {
		t.Fatal("step-5 should be pruned")
	}
	for _, keep := range []string{"step-10", "step-15"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Fatalf("%s should be kept: %v", keep, err)
		}
	}
	m, _, err := Latest(dir)
	if err != nil || m.Step != 15 {
		t.Fatalf("latest %v, %v", m, err)
	}
}

// TestLatestMissing: a fresh directory reports os.ErrNotExist so callers
// can distinguish "no checkpoint yet" from a real failure.
func TestLatestMissing(t *testing.T) {
	_, _, err := Latest(t.TempDir())
	if !os.IsNotExist(err) {
		t.Fatalf("want not-exist, got %v", err)
	}
}

// TestGraphSigOrderInsensitive: the signature is a set hash, not a list
// hash — partitioning order must not change it.
func TestGraphSigOrderInsensitive(t *testing.T) {
	a := GraphSig([]string{"x", "y", "z"})
	b := GraphSig([]string{"z", "x", "y"})
	if a != b {
		t.Fatal("sig depends on order")
	}
	if GraphSig([]string{"x", "y"}) == a {
		t.Fatal("sig ignores membership")
	}
	if GraphSig([]string{"xy", "z"}) == GraphSig([]string{"x", "yz"}) {
		t.Fatal("sig is delimiter-blind")
	}
}

// TestDecodeCommittedCheckpoint pins the on-disk format: testdata holds a
// checkpoint of every dtype, empty tensors included, written before the
// decoder's validation moved into tensor.Decoded. It must still decode to
// the same values, and encoding those values must give back its bytes.
func TestDecodeCommittedCheckpoint(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("testdata", "every_dtype.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*tensor.Tensor{
		"f":       tensor.FromFloats([]float64{1.5, -2.25, 0, 1e300}, 2, 2),
		"f_empty": tensor.FromFloats(nil, 0),
		"i":       tensor.FromInts([]int64{-9223372036854775808, 9223372036854775807, 0}, 3),
		"i_empty": tensor.FromInts(nil, 0, 3),
		"b":       tensor.FromBools([]bool{true, false, true}, 3),
		"b_empty": tensor.FromBools(nil, 0),
		"s":       tensor.FromStrings([]string{"", "héllo", "a\x00b"}, 3),
		"s_empty": tensor.FromStrings(nil, 0),
		"scalar":  tensor.Scalar(-0.5),
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d variables, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil || g.DType() != w.DType() || !slices.Equal(g.Shape(), w.Shape()) || !tensor.Equal(g, w) {
			t.Fatalf("%s: got %v, want %v", name, g, w)
		}
	}
	var again bytes.Buffer
	if err := Encode(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), file) {
		t.Fatal("re-encoding the committed checkpoint changed its bytes")
	}
}

// save writes all variables in the session container to w, as a driver
// checkpointing a session does: Capture, then Encode.
func save(w io.Writer, sess *ops.Resources) error {
	vars, err := Capture(sess)
	if err != nil {
		return err
	}
	return Encode(w, vars)
}
