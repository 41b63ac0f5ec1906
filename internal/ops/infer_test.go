package ops

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// findings is an InferNode that keeps what a rule reports.
type findings []string

func (f *findings) Addf(port int, code, format string, args ...any) {
	*f = append(*f, fmt.Sprintf("port %d %s: ", port, code)+fmt.Sprintf(format, args...))
}

func (f *findings) InputName(i int) string { return fmt.Sprintf("in%d", i) }

// inexact names the rules that leave an output unknown for inputs they
// could read exactly, and why.
var inexact = map[string]string{
	// tensor.Transpose's default swaps a matrix's axes; a rule that says so
	// moves TestMemoryBoundMoETrainStep's pinned bound, so it waits until
	// the memory bound itself is reworked.
	"Transpose": "a matrix's default perm is left unknown",
}

// covers reports whether fact f admits tensor t: every dtype, dim and
// constant f claims is t's.
func covers(f Fact, t *tensor.Tensor) bool {
	if f.DTypeOK && f.DType != t.DType() || f.RankOK && len(f.Shape) != t.Rank() {
		return false
	}
	for d, n := range f.Shape {
		if n >= 0 && n != t.Dim(d) {
			return false
		}
	}
	if f.Val == nil {
		return true
	}
	vals := make([]int, len(t.I))
	for i, v := range t.I {
		vals[i] = int(v)
	}
	return t.DType() == tensor.Int && slices.Equal(f.Val, vals)
}

// exact reports whether f knows t's dtype and every dim.
func exact(f Fact, t *tensor.Tensor) bool {
	_, ok := f.NumElems()
	return covers(f, t) && f.DTypeOK && ok
}

// widen forgets input i's constant and its dims (-1), or its rank too.
func widen(ins []Fact, i int, rank bool) []Fact {
	w := slices.Clone(ins)
	w[i] = Fact{DType: ins[i].DType, DTypeOK: ins[i].DTypeOK}
	if !rank {
		w[i].Shape, w[i].RankOK = slices.Repeat([]int{-1}, len(ins[i].Shape)), true
	}
	return w
}

// TestInferMatchesKernel holds every op's inference rule to its kernel: for
// each sample in opSamples the kernel runs, and the rule, given its inputs'
// exact facts, must report nothing and predict every output's dtype and
// shape (and the constant it claims, if any). Given any one input, or all,
// widened to -1 dims or an unknown rank, the rule must still report nothing
// and return facts no narrower than the join of every output it admits — so
// facts that still cover the kernel's outputs — since the verifier's
// fixpoint widens facts and relies on the rules to follow.
func TestInferMatchesKernel(t *testing.T) {
	samples := opSamples()
	for _, name := range slices.Sorted(maps.Keys(registry)) {
		def := registry[name]
		if def.Infer == nil {
			continue
		}
		if len(samples[name]) == 0 {
			t.Errorf("%s has an inference rule but no entry in opSamples", name)
			continue
		}
		for si, s := range samples[name] {
			env := newFakeEnv()
			env.feeds[name] = mat(1, 2, 3, 4, 5, 6) // read by Placeholder only
			ctx := &KernelContext{OpName: name, NodeName: name, Attrs: s.attrs, Env: env}
			var ins []Fact
			if s.ins != nil {
				for _, in := range s.ins() {
					ctx.In = append(ctx.In, TensorVal(in))
					ins = append(ins, known(in))
				}
			}
			outs, err := def.Kernel(ctx)
			if err != nil {
				t.Fatalf("%s sample %d: %v", name, si, err)
			}
			infer := func(ins []Fact) ([]Fact, findings) {
				var fs findings
				c := &InferCtx{Op: name, Attrs: s.attrs, Ins: ins, Out: make([]Fact, len(outs)), Node: &fs}
				def.Infer(c)
				return c.Out, fs
			}
			facts, fs := infer(ins)
			for p, o := range outs {
				if !exact(facts[p], o.T) && !(inexact[name] != "" && covers(facts[p], o.T)) {
					t.Errorf("%s sample %d output %d: kernel gives %s %v, rule infers %+v", name, si, p, o.T.DType(), o.T.Shape(), facts[p])
				}
			}
			if len(fs) > 0 {
				t.Errorf("%s sample %d: rule reports %v on inputs the kernel accepts", name, si, fs)
			}
			for i := -1; i < len(ins); i++ {
				for _, rank := range []bool{false, true} {
					w := ins
					for j := range ins {
						if i < 0 || j == i {
							w = widen(w, j, rank)
						}
					}
					facts, fs := infer(w)
					for p, o := range outs {
						if !covers(facts[p], o.T) {
							t.Errorf("%s sample %d, input %d widened (rank %v): rule infers %+v, narrower than the kernel's %s %v",
								name, si, i, rank, facts[p], o.T.DType(), o.T.Shape())
						}
					}
					if len(fs) > 0 {
						t.Errorf("%s sample %d, input %d widened (rank %v): rule reports %v", name, si, i, rank, fs)
					}
				}
			}
		}
	}
}
