package core

// Property-based tests (testing/quick) on the control-flow semantics: for
// random programs and inputs, in-graph constructs must agree with their
// plain-Go equivalents, and results must be invariant to the degree of
// iteration parallelism.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestPropWhileMatchesGoLoop(t *testing.T) {
	f := func(limit8 uint8, step8 uint8, init float64) bool {
		limit := float64(limit8 % 50)
		step := float64(step8%9) + 1
		if math.IsNaN(init) || math.IsInf(init, 0) {
			return true
		}
		init = math.Mod(init, 1000)

		b := NewBuilder()
		outs := b.While(
			[]graph.Output{b.Scalar(0), b.Scalar(init)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(limit)) },
			func(v []graph.Output) []graph.Output {
				return []graph.Output{
					b.Add(v[0], b.Scalar(1)),
					b.Add(v[1], b.Scalar(step)),
				}
			},
			WhileOpts{},
		)
		got, err := fetch1(NewSession(b), nil, outs[1])
		if err != nil {
			t.Logf("run error: %v", err)
			return false
		}
		want := init
		for i := 0.0; i < limit; i++ {
			want += step
		}
		return math.Abs(got.ScalarValue()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCondMatchesSelect(t *testing.T) {
	f := func(p bool, x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 100)
		b := NewBuilder()
		xc := b.Scalar(x)
		pc := b.Const(tensor.ScalarBool(p))
		outs := b.Cond(pc,
			func() []graph.Output { return []graph.Output{b.Op("Square", nil, xc)} },
			func() []graph.Output { return []graph.Output{b.Neg(xc)} },
		)
		got, err := fetch1(NewSession(b), nil, outs[0])
		if err != nil {
			return false
		}
		want := -x
		if p {
			want = x * x
		}
		return math.Abs(got.ScalarValue()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropScanMatchesPrefix(t *testing.T) {
	f := func(raw [7]float64) bool {
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			vals[i] = math.Mod(v, 10)
		}
		b := NewBuilder()
		elems := b.Const(tensor.FromFloats(vals, len(vals)))
		out := b.Scan(func(acc, x graph.Output) graph.Output {
			return b.Add(acc, x)
		}, elems, b.Scalar(0), WhileOpts{})
		got, err := fetch1(NewSession(b), nil, out)
		if err != nil {
			return false
		}
		acc := 0.0
		for i, v := range vals {
			acc += v
			if math.Abs(got.F[i]-acc) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropFoldLAgainstFoldR(t *testing.T) {
	// For a commutative, associative fn, foldl == foldr.
	f := func(raw [6]float64) bool {
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			vals[i] = math.Mod(v, 10)
		}
		b := NewBuilder()
		elems := b.Const(tensor.FromFloats(vals, len(vals)))
		add := func(acc, x graph.Output) graph.Output { return b.Add(acc, x) }
		l := b.FoldL(add, elems, b.Scalar(0), WhileOpts{})
		r := b.FoldR(add, elems, b.Scalar(0), WhileOpts{})
		out, err := NewSession(b).Run(nil, []graph.Output{l, r}, nil)
		if err != nil {
			return false
		}
		return math.Abs(out[0].ScalarValue()-out[1].ScalarValue()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropResultInvariantToParallelWindow(t *testing.T) {
	// The parallel-iterations knob must never change results (§4.3: it
	// trades memory for parallelism only).
	f := func(limit8 uint8, seed uint8) bool {
		limit := float64(limit8%40) + 1
		init := tensor.RandNormal(tensor.NewRNG(uint64(seed)+1), 0, 1, 3, 3)
		var ref *tensor.Tensor
		for _, par := range []int{1, 3, 32} {
			b := NewBuilder()
			outs := b.While(
				[]graph.Output{b.Scalar(0), b.Const(init)},
				func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(limit)) },
				func(v []graph.Output) []graph.Output {
					return []graph.Output{
						b.Add(v[0], b.Scalar(1)),
						b.Tanh(b.MatMul(v[1], v[1])),
					}
				},
				WhileOpts{ParallelIterations: par},
			)
			got, err := fetch1(NewSession(b), nil, outs[1])
			if err != nil {
				return false
			}
			if ref == nil {
				ref = got
			} else if !allClose(ref, got, 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPropNestedLoopMatchesNestedGoLoop(t *testing.T) {
	f := func(outer8, inner8 uint8) bool {
		outer := float64(outer8 % 5)
		inner := float64(inner8 % 5)
		b := NewBuilder()
		outs := b.While(
			[]graph.Output{b.Scalar(0), b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(outer)) },
			func(v []graph.Output) []graph.Output {
				in := b.While(
					[]graph.Output{b.Scalar(0), v[1]},
					func(iv []graph.Output) graph.Output { return b.Less(iv[0], b.Scalar(inner)) },
					func(iv []graph.Output) []graph.Output {
						return []graph.Output{b.Add(iv[0], b.Scalar(1)), b.Add(iv[1], b.Scalar(1))}
					},
					WhileOpts{Name: "inner"},
				)
				return []graph.Output{b.Add(v[0], b.Scalar(1)), in[1]}
			},
			WhileOpts{Name: "outer"},
		)
		got, err := fetch1(NewSession(b), nil, outs[1])
		if err != nil {
			return false
		}
		return got.ScalarValue() == outer*inner
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
