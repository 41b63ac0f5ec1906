package oracle

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/optimize"
	"repro/internal/tensor"
)

// A program is a seeded, randomly shaped nest of conds and whiles over
// float vectors of width 3: loop variables and captured outer values, trip
// counts computed from the data (zero included), values consumed any
// number of times (zero included) and values that go round a loop
// unchanged. The builder sees the seed's choices only; the window is the
// one thing a configuration changes.

const (
	width    = 3
	maxDepth = 3
)

type gen struct {
	r      *rand.Rand
	b      *core.Builder
	window int
	text   strings.Builder
	names  map[graph.Output]string
	indent int
}

func (g *gen) line(format string, args ...any) {
	fmt.Fprintf(&g.text, "%s%s\n", strings.Repeat("  ", g.indent), fmt.Sprintf(format, args...))
}

// name records a new value of the program text.
func (g *gen) name(v graph.Output, format string, args ...any) graph.Output {
	n := fmt.Sprintf("v%d", len(g.names))
	g.names[v] = n
	g.line("%s = %s", n, fmt.Sprintf(format, args...))
	return v
}

func (g *gen) pick(pool []graph.Output) graph.Output { return pool[g.r.Intn(len(pool))] }

func (g *gen) vec() *tensor.Tensor {
	f := make([]float64, width)
	for i := range f {
		f[i] = math.Round(g.r.Float64()*40-20) / 10
	}
	return tensor.FromFloats(f, width)
}

// sum reduces a vector to the scalar a predicate or trip count needs.
func (g *gen) sum(v graph.Output) graph.Output {
	return g.b.Op("Sum", map[string]any{"axes": []int(nil), "keep_dims": false}, v)
}

// block appends n statements to pool and returns it.
func (g *gen) block(pool []graph.Output, depth, n int) []graph.Output {
	for i := 0; i < n; i++ {
		switch k := g.r.Intn(10); {
		case k < 2 && depth < maxDepth:
			pool = append(pool, g.cond(pool, depth)...)
		case k < 4 && depth < maxDepth:
			pool = append(pool, g.while(pool, depth)...)
		case k < 7:
			op := []string{"Add", "Sub", "Mul", "Maximum"}[g.r.Intn(4)]
			x, y := g.pick(pool), g.pick(pool)
			pool = append(pool, g.name(g.b.Op(op, nil, x, y), "%s(%s, %s)", op, g.names[x], g.names[y]))
		case k < 9:
			op := []string{"Tanh", "Neg", "Square", "Identity"}[g.r.Intn(4)]
			x := g.pick(pool)
			pool = append(pool, g.name(g.b.Op(op, nil, x), "%s(%s)", op, g.names[x]))
		default:
			c := g.vec()
			pool = append(pool, g.name(g.b.Const(c), "const %v", c.F))
		}
	}
	return pool
}

// results picks k values of pool, possibly repeated, possibly outer ones.
func (g *gen) results(pool []graph.Output, k int) []graph.Output {
	out := make([]graph.Output, k)
	for i := range out {
		out[i] = g.pick(pool)
	}
	return out
}

func (g *gen) list(vs []graph.Output) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = g.names[v]
	}
	return strings.Join(s, ", ")
}

func (g *gen) cond(pool []graph.Output, depth int) []graph.Output {
	x, y := g.pick(pool), g.pick(pool)
	k := 1 + g.r.Intn(3)
	g.line("if sum(%s) < sum(%s) {", g.names[x], g.names[y])
	branch := func() []graph.Output {
		g.indent++
		defer func() { g.indent-- }()
		outs := g.results(g.block(pool, depth+1, g.r.Intn(4)), k)
		g.line("yield %s", g.list(outs))
		return outs
	}
	outs := g.b.Cond(g.b.Less(g.sum(x), g.sum(y)), branch,
		func() []graph.Output { g.line("} else {"); return branch() })
	g.line("}")
	for i := range outs {
		g.name(outs[i], "cond result %d", i)
	}
	return outs
}

// while runs k loop variables for a trip count taken from the data:
// ceil(a*tanh(sum(x)) + c) iterations when positive, else none.
func (g *gen) while(pool []graph.Output, depth int) []graph.Output {
	x := g.pick(pool)
	a, c := float64(1+g.r.Intn(3)), float64(g.r.Intn(4)-1)
	limit := g.b.Add(g.b.Mul(g.b.Tanh(g.sum(x)), g.b.Scalar(a)), g.b.Scalar(c))
	inits := append([]graph.Output{g.b.Scalar(0)}, g.results(pool, 1+g.r.Intn(3))...)
	g.line("for i := 0; i < %v*tanh(sum(%s))%+v; i++ { vars %s", a, g.names[x], c, g.list(inits[1:]))
	n := 2 + g.r.Intn(4)
	outs := g.b.While(inits,
		func(v []graph.Output) graph.Output { return g.b.Less(v[0], limit) },
		func(v []graph.Output) []graph.Output {
			g.indent++
			defer func() { g.indent-- }()
			body := append([]graph.Output(nil), pool...)
			for i, lv := range v[1:] {
				body = append(body, g.name(lv, "var %d", i))
			}
			next := g.results(g.block(body, depth+1, n), len(v)-1)
			g.line("next %s", g.list(next))
			return append([]graph.Output{g.b.Add(v[0], g.b.Scalar(1))}, next...)
		}, core.WhileOpts{ParallelIterations: g.window})
	g.line("}")
	for i, o := range outs[1:] {
		g.name(o, "loop result %d", i)
	}
	return outs[1:]
}

// program builds seed's program at one window and returns it with the
// outputs to fetch (every value at the root, in the order the text names
// them) and its text.
func program(seed int64, window int) (*core.Builder, []graph.Output, string) {
	g := &gen{r: rand.New(rand.NewSource(seed)), b: core.NewBuilder(), window: window, names: map[graph.Output]string{}}
	x := g.name(g.b.Placeholder("x"), "feed x")
	pool := g.block([]graph.Output{x}, 0, 4+g.r.Intn(6))
	return g.b, pool, g.text.String()
}

// config is one executor setting the reference must agree with.
type config struct {
	window, procs int
	optimized     bool
}

func (c config) String() string {
	return fmt.Sprintf("parallel_iterations=%d GOMAXPROCS=%d optimized=%v", c.window, c.procs, c.optimized)
}

func configs() []config {
	var out []config
	for _, w := range []int{1, 4, 32} {
		for _, p := range []int{1, 2} {
			for _, o := range []bool{false, true} {
				out = append(out, config{w, p, o})
			}
		}
	}
	return out
}

// corpusSeeds is the tier-1 corpus: a fixed range of seeds.
const corpusSeeds = 150

// TestExecutorMatchesReference: for every corpus seed, the fetched bits of
// every configuration equal the reference interpreter's. A failure prints
// the seed, the configuration and the program.
func TestExecutorMatchesReference(t *testing.T) {
	feeds := map[string]*tensor.Tensor{"x": tensor.FromFloats([]float64{0.5, -1.25, 2}, width)}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for seed := int64(1); seed <= corpusSeeds; seed++ {
		b, fetches, text := program(seed, 1)
		if err := b.Err(); err != nil {
			t.Fatalf("seed %d: building: %v\n%s", seed, err, text)
		}
		want, err := reference(feeds, fetches)
		if err != nil {
			t.Fatalf("seed %d: reference: %v\n%s", seed, err, text)
		}
		for _, c := range configs() {
			if err := check(seed, c, feeds, want); err != nil {
				t.Fatalf("seed %d, %s: %v\nprogram:\n%s", seed, c, err, text)
			}
		}
	}
}

// check runs seed's program under c and compares every fetch with want.
func check(seed int64, c config, feeds map[string]*tensor.Tensor, want []*tensor.Tensor) error {
	runtime.GOMAXPROCS(c.procs)
	b, fetches, _ := program(seed, c.window)
	if c.optimized {
		if _, err := optimize.Optimize(b.G); err != nil {
			return fmt.Errorf("optimize: %w", err)
		}
	}
	// A step that hangs fails with the seed and program like any other.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, _, err := core.NewSession(b).RunCtx(ctx, core.RunOptions{Feeds: feeds, Fetches: fetches})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return fmt.Errorf("fetch %d: executor %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}

func sameBits(a, b *tensor.Tensor) bool {
	if a.DType() != b.DType() || !tensor.ShapeEq(a.Shape(), b.Shape()) || len(a.F) != len(b.F) {
		return false
	}
	for i := range a.F {
		if math.Float64bits(a.F[i]) != math.Float64bits(b.F[i]) {
			return false
		}
	}
	return true
}
