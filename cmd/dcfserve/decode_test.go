package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// refDecode is the decoder /predict had before the one-pass scanner —
// encoding/json into a struct, then the handler's and the batcher's shape
// checks — kept as the reference the scanner is pinned to.
func refDecode(body []byte, dim, maxRows int) (rows [][]float64, single bool, err error) {
	var req struct {
		X         []float64   `json:"x"`
		Instances [][]float64 `json:"instances"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, false, err
	}
	rows = req.Instances
	if rows == nil {
		if req.X == nil {
			return nil, false, errors.New("neither x nor instances")
		}
		rows, single = [][]float64{req.X}, true
	}
	if len(rows) == 0 {
		return nil, false, errors.New("no instances")
	}
	for i, row := range rows {
		if len(row) != dim {
			return nil, false, fmt.Errorf("instance %d has %d values, want %d", i, len(row), dim)
		}
	}
	if len(rows) > maxRows {
		return nil, false, fmt.Errorf("%d rows, above %d", len(rows), maxRows)
	}
	return rows, single, nil
}

// diffDecode runs body through the reference and the scanner and fails on
// any difference the named divergence does not cover: the same bodies are
// accepted, with the same rows bit for bit. It also holds the scanner to
// its memory rules: tensor bytes bounded by the body and by maxRows, and
// every buffer but the returned feed back in the pool.
func diffDecode(t testing.TB, body []byte, dim, maxRows int) {
	t.Helper()
	want, wantSingle, refErr := refDecode(body, dim, maxRows)
	tensor.ResetPoolWater()
	feed, single, err := decodePredict(body, dim, maxRows)
	if peak, bound := tensor.PoolPeakBytes(), int64(8*dim)*int64(1+min(maxRows, len(body)/(2*dim+1)+1)); peak > bound {
		t.Fatalf("decoding %d bytes took %d tensor bytes from the pool, bound %d", len(body), peak, bound)
	}
	switch {
	case err != nil && feed != nil:
		t.Fatalf("an error (%v) came with a feed", err)
	case refErr != nil && err == nil:
		t.Fatalf("scanner accepts what encoding/json refuses (%v):\n%.300q", refErr, body)
	case refErr == nil && err != nil:
		if !errors.Is(err, errNullElement) {
			t.Fatalf("scanner refuses (%v) what encoding/json accepts:\n%.300q", err, body)
		}
	case err == nil:
		if single != wantSingle || feed.Rank() != 2 || feed.Dim(0) != len(want) || feed.Dim(1) != dim {
			t.Fatalf("got single=%v shape %v, want single=%v [%d %d]:\n%.300q", single, feed.Shape(), wantSingle, len(want), dim, body)
		}
		for r, row := range want {
			for j, v := range row {
				if got := feed.F[r*dim+j]; math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("row %d value %d: got %v (%#x), encoding/json reads %v (%#x):\n%.300q",
						r, j, got, math.Float64bits(got), v, math.Float64bits(v), body)
				}
			}
		}
		tensor.Recycle(feed)
	}
	if live := poolLive.Value(); live != 0 {
		t.Fatalf("decode left %d tensor bytes checked out of the pool:\n%.300q", live, body)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// bodyGen writes random /predict bodies, well-formed unless mutated.
type bodyGen struct {
	rng *rand.Rand
	dim int
	sb  strings.Builder
}

// ws writes optional whitespace: JSON allows it between any two tokens.
func (g *bodyGen) ws() {
	for g.rng.Intn(4) == 0 {
		g.sb.WriteByte(" \t\r\n"[g.rng.Intn(4)])
	}
}

func (g *bodyGen) tok(s string) {
	g.ws()
	g.sb.WriteString(s)
	g.ws()
}

// number writes one JSON number, drawn to straddle every boundary of the
// scanner's exact path: digit counts around 15, exponents around ±22, the
// float64 range at both ends.
func (g *bodyGen) number() string {
	r := g.rng
	switch r.Intn(12) {
	case 0: // what the benchmark sends: shortest round-trip 'g'
		return strconv.FormatFloat(r.NormFloat64(), 'g', -1, 64)
	case 1:
		return strconv.FormatInt(r.Int63n(2000)-1000, 10)
	case 2:
		return strconv.FormatFloat(r.NormFloat64()*math.Pow(10, float64(r.Intn(80)-40)), 'e', r.Intn(20), 64)
	case 3:
		return []string{"0", "-0", "0.0", "-0.0", "0e0", "-0E-0", "0.000", "1", "-1", "1e0", "1E+2", "1e-2"}[r.Intn(12)]
	case 4: // subnormals and the edges of the range
		return []string{"5e-324", "4.9e-324", "2.5e-324", "2.4e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
			"1e-400", "-1e-400", "1.7976931348623157e308", "1.7976931348623158e308", "1e308", "-1e308"}[r.Intn(12)]
	case 5: // integers around 2^53 and halfway cases
		return []string{"9007199254740992", "9007199254740993", "9007199254740995", "999999999999999", "1000000000000000",
			"123456789012345678", "0.1", "0.30000000000000004", "1e22", "1e23", "8.5e-23", "123456789012345e22",
			"123456789012345e-22", "999999999999999e23", "1.0000000000000002", "4.35", "0.000001", "1e21",
			"4503599627370496.5", "4503599627370497.5", "9999999999999999999", "0.0000000000000000001"}[r.Intn(22)]
	case 6: // very long literals
		var sb strings.Builder
		n := 20 + r.Intn(400)
		point := r.Intn(n)
		sb.WriteByte("123456789"[r.Intn(9)])
		for i := 0; i < n; i++ {
			if i == point {
				sb.WriteByte('.')
			}
			sb.WriteByte("0123456789"[r.Intn(10)])
		}
		if r.Intn(2) == 0 {
			fmt.Fprintf(&sb, "e-%d", r.Intn(2*n))
		}
		return sb.String()
	default: // free-form: digits, point and exponent all random
		var sb strings.Builder
		if r.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		if r.Intn(3) == 0 {
			sb.WriteByte('0')
		} else {
			sb.WriteByte("123456789"[r.Intn(9)])
			for n := r.Intn(20); n > 0; n-- {
				sb.WriteByte("0123456789"[r.Intn(10)])
			}
		}
		if r.Intn(3) > 0 {
			sb.WriteByte('.')
			for n := 1 + r.Intn(22); n > 0; n-- {
				sb.WriteByte("0000123456789"[r.Intn(13)])
			}
		}
		if r.Intn(2) == 0 {
			sb.WriteByte("eE"[r.Intn(2)])
			sb.WriteString([]string{"", "+", "-"}[r.Intn(3)])
			if r.Intn(6) == 0 {
				sb.WriteString(strconv.Itoa(r.Intn(400)))
			} else {
				sb.WriteString(strconv.Itoa(r.Intn(30)))
			}
		}
		return sb.String()
	}
}

func (g *bodyGen) row(n int) {
	g.tok("[")
	for j := 0; j < n; j++ {
		if j > 0 {
			g.tok(",")
		}
		g.tok(g.number())
	}
	g.tok("]")
}

// width is dim, now and then off by something.
func (g *bodyGen) width() int {
	if g.rng.Intn(12) == 0 {
		return g.rng.Intn(2 * g.dim)
	}
	return g.dim
}

// any writes a value of any JSON type: what an unknown key may hold.
func (g *bodyGen) any(depth int) {
	r := g.rng
	kind := r.Intn(8)
	if depth > 4 {
		kind = r.Intn(6)
	}
	switch kind {
	case 0:
		g.tok([]string{"null", "true", "false"}[r.Intn(3)])
	case 1:
		g.tok(g.number())
	case 2: // numbers only a skipper accepts: nothing has to hold them
		g.tok([]string{"1e999", "-1e999", "1e400"}[r.Intn(3)])
	case 3, 4, 5:
		g.tok(g.str())
	case 6:
		g.tok("[")
		for n := r.Intn(4); n > 0; n-- {
			g.any(depth + 1)
			if n > 1 {
				g.tok(",")
			}
		}
		g.tok("]")
	case 7:
		g.tok("{")
		for n := r.Intn(4); n > 0; n-- {
			g.tok(g.str())
			g.tok(":")
			g.any(depth + 1)
			if n > 1 {
				g.tok(",")
			}
		}
		g.tok("}")
	}
}

// str writes a JSON string literal with escapes, brackets and non-ASCII.
func (g *bodyGen) str() string {
	parts := []string{"a", "pad", "x", "instances", " ", "[", "]", "{", "}", ",", ":", `\"`, `\\`, `\/`, `\b`, `\f`, `\n`, `\r`, `\t`,
		`\u0078`, `\u00e9`, `\ud83d\ude00`, `\ud800`, `\udc00x`, "é", "ſ", "\xff", "1e5", "null"}
	var sb strings.Builder
	sb.WriteByte('"')
	for n := g.rng.Intn(5); n > 0; n-- {
		sb.WriteString(parts[g.rng.Intn(len(parts))])
	}
	sb.WriteByte('"')
	return sb.String()
}

// body writes one whole request.
func (g *bodyGen) body() []byte {
	r := g.rng
	g.sb.Reset()
	xKeys := []string{`"x"`, `"x"`, `"x"`, `"X"`, `"\u0078"`, `"\u0058"`}
	instKeys := []string{`"instances"`, `"instances"`, `"instances"`, `"INSTANCES"`, `"Instances"`, `"inſtanceſ"`,
		`"\u0069nstances"`, `"instance\u0053"`, `"in\u017ftances"`}
	g.tok("{")
	for n, members := 0, 1+r.Intn(4); n < members; n++ {
		if n > 0 {
			g.tok(",")
		}
		switch k := r.Intn(10); {
		case k < 3:
			g.tok(xKeys[r.Intn(len(xKeys))])
			g.tok(":")
			if r.Intn(10) == 0 {
				g.tok("null")
			} else {
				g.row(g.width())
			}
		case k < 7:
			g.tok(instKeys[r.Intn(len(instKeys))])
			g.tok(":")
			if r.Intn(10) == 0 {
				g.tok("null")
				break
			}
			g.tok("[")
			for i, rows := 0, r.Intn(7); i < rows; i++ { // maxRows is 4 in the tests
				if i > 0 {
					g.tok(",")
				}
				if r.Intn(25) == 0 {
					g.tok("null")
				} else {
					g.row(g.width())
				}
			}
			g.tok("]")
		default:
			g.tok(g.str())
			g.tok(":")
			g.any(0)
		}
	}
	g.tok("}")
	if r.Intn(8) == 0 {
		g.sb.WriteString([]string{"x", "}", "{", " 1", "\n\n", "null"}[r.Intn(6)])
	}
	return []byte(g.sb.String())
}

// mutate damages a body: a cut, or a few bytes replaced, dropped or added
// from the alphabet JSON is written in.
func (g *bodyGen) mutate(b []byte) []byte {
	const alphabet = "{}[]\",:-+.eE0123456789 \t\nnulltruefalse\\ux\x00\x1f"
	r := g.rng
	b = bytes.Clone(b)
	if r.Intn(4) == 0 {
		return b[:r.Intn(len(b)+1)]
	}
	for n := 1 + r.Intn(3); n > 0 && len(b) > 0; n-- {
		i, c := r.Intn(len(b)), alphabet[r.Intn(len(alphabet))]
		switch r.Intn(3) {
		case 0:
			b[i] = c
		case 1:
			b = append(b[:i], b[i+1:]...)
		case 2:
			b = append(b[:i], append([]byte{c}, b[i:]...)...)
		}
	}
	return b
}

// TestDecodeMatchesEncodingJSON is the differential that pins the scanner
// to the decoder it replaced, over a seeded corpus: the benchmark's 17-digit
// floats, integers, exponents, -0, subnormals, 400-digit literals,
// whitespace everywhere, unknown keys holding every JSON type, duplicate,
// capitalised and escaped keys, nulls, wrong widths and row counts — and
// the same bodies damaged.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	const dim, maxRows = 3, 4
	g := &bodyGen{rng: newRand(17), dim: dim}
	accepted := 0
	for i := 0; i < 6000; i++ {
		body := g.body()
		if _, _, err := refDecode(body, dim, maxRows); err == nil {
			accepted++
		}
		diffDecode(t, body, dim, maxRows)
		diffDecode(t, g.mutate(body), dim, maxRows)
	}
	// A corpus the reference mostly refuses would pin little.
	if accepted < 1000 {
		t.Fatalf("only %d of 6000 generated bodies are valid requests", accepted)
	}

	// The benchmark's own shape: 16 rows of 256 shortest-round-trip floats.
	diffDecode(t, benchBody(16, 256, 1), 256, 32)

	for _, tc := range []struct {
		name, body string
	}{
		{"empty", ``},
		{"only whitespace", " \n"},
		{"top-level null", `null`},
		{"top-level array", `[1,2,3]`},
		{"top-level number", `123`},
		{"top-level string", `"x"`},
		{"empty object", `{}`},
		{"x", `{"x":[1,2,3]}`},
		{"instances", `{"instances":[[1,2,3],[4,5,6]]}`},
		{"capital X", `{"X":[1,2,3]}`},
		{"long s", `{"inſtanceſ":[[1,2,3]]}`},
		{"Kelvin sign is not in either name", `{"K":[1,2,3]}`},
		{"escaped x", `{"\u0078":[1,2,3]}`},
		{"escaped x replaces x", `{"x":[1,2,3],"\u0078":[4,5,6]}`},
		{"escaped instances, long s", `{"\u0049n\u017ftance\u0073":[[1,2,3]]}`},
		{"escaped but another key", `{"\u0079":[9,9,9],"x":[1,2,3]}`},
		{"escaped solidus in an unknown key", `{"a\/b":1,"x":[1,2,3]}`},
		{"surrogate pair in an unknown key", `{"\ud83d\ude00":1,"x":[1,2,3]}`},
		{"lone surrogate then x", `{"\ud800x":[9,9,9],"x":[1,2,3]}`},
		{"trailing bytes", `{"x":[1,2,3]}}}garbage`},
		{"trailing comma in object", `{"x":[1,2,3],}`},
		{"trailing comma in row", `{"x":[1,2,3,]}`},
		{"leading comma", `{,"x":[1,2,3]}`},
		{"x then instances", `{"x":[1,2,3],"instances":[[4,5,6]]}`},
		{"instances then x", `{"instances":[[4,5,6]],"x":[1,2,3]}`},
		{"null instances leaves x", `{"instances":null,"x":[1,2,3]}`},
		{"instances unset by a later null", `{"instances":[[4,5,6]],"instances":null,"x":[1,2,3]}`},
		{"x unset by a later null", `{"x":[1,2,3],"x":null}`},
		{"empty instances beats x", `{"instances":[],"x":[1,2,3]}`},
		{"duplicate x, last wins", `{"x":[1,2,3],"x":[4,5,6]}`},
		{"bad first x replaced", `{"x":[1,2],"x":[4,5,6]}`},
		{"bad rows replaced", `{"instances":[[1],[2,3],[],[4],[5],[6]],"instances":[[4,5,6]]}`},
		{"good rows replaced by bad", `{"instances":[[4,5,6]],"instances":[[4,5]]}`},
		{"too many rows replaced", `{"instances":[[1,2,3],[1,2,3],[1,2,3],[1,2,3],[1,2,3]],"instances":[[4,5,6]]}`},
		{"out-of-range number in a replaced x", `{"x":[1e999,2,3],"x":[4,5,6]}`},
		{"string in a replaced x", `{"x":"no","x":[4,5,6]}`},
		{"null row", `{"instances":[null]}`},
		{"null row replaced", `{"instances":[null],"instances":[[4,5,6]]}`},
		{"zero rows", `{"instances":[]}`},
		{"five rows", `{"instances":[[1,2,3],[1,2,3],[1,2,3],[1,2,3],[1,2,3]]}`},
		{"short row", `{"instances":[[1,2,3],[1,2]]}`},
		{"long row", `{"x":[1,2,3,4]}`},
		{"empty x", `{"x":[]}`},
		{"1e999", `{"x":[1e999,2,3]}`},
		{"1e999 under an unknown key", `{"pad":1e999,"x":[1,2,3]}`},
		{"-1e400", `{"x":[1,-1e400,3]}`},
		{"underflow to zero", `{"x":[1e-400,-1e-400,3]}`},
		{"truncated", `{"x":[1,2`},
		{"truncated in a number", `{"x":[1,2,3e`},
		{"truncated in a key", `{"x`},
		{"number forms", `{"x":[-0,0.5e+1,1E-2]}`},
		{"leading zero", `{"x":[01,2,3]}`},
		{"bare minus", `{"x":[-,2,3]}`},
		{"plus sign", `{"x":[+1,2,3]}`},
		{"no integer part", `{"x":[.5,2,3]}`},
		{"no fraction digits", `{"x":[1.,2,3]}`},
		{"no exponent digits", `{"x":[1e,2,3]}`},
		{"hex float", `{"x":[0x1p-2,2,3]}`},
		{"Infinity", `{"x":[Infinity,2,3]}`},
		{"NaN", `{"x":[NaN,2,3]}`},
		{"underscore", `{"x":[1_0,2,3]}`},
		{"string element", `{"x":["1",2,3]}`},
		{"bool element", `{"x":[true,2,3]}`},
		{"nested x", `{"x":[[1,2,3]]}`},
		{"flat instances", `{"instances":[1,2,3]}`},
		{"object for x", `{"x":{"a":1}}`},
		{"number for x", `{"x":1}`},
		{"control character in a key", "{\"a\x01\":1,\"x\":[1,2,3]}"},
		{"control character in a skipped string", "{\"a\":\"\n\",\"x\":[1,2,3]}"},
		{"bad escape", `{"a":"\q","x":[1,2,3]}`},
		{"short \\u", `{"a":"\u12","x":[1,2,3]}`},
		{"invalid UTF-8 in a key", "{\"\xff\":1,\"x\":[1,2,3]}"},
		{"unquoted key", `{x:[1,2,3]}`},
		{"single quotes", `{'x':[1,2,3]}`},
		{"missing colon", `{"x"[1,2,3]}`},
		{"missing comma", `{"a":1 "x":[1,2,3]}`},
		{"mismatched brackets in a skipped value", `{"a":[1,{"b":2]},"x":[1,2,3]}`},
		{"bad literal in a skipped value", `{"a":nul,"x":[1,2,3]}`},
		{"literal glued to a number", `{"a":true1,"x":[1,2,3]}`},
		{"every type skipped", `{"a":null,"b":true,"c":false,"d":-1.5e3,"e":"s","f":[],"g":{},"h":[[],{}],"i":{"x":[9]},"x":[1,2,3]}`},
		{"BOM", "\xef\xbb\xbf{\"x\":[1,2,3]}"},
		{"vertical tab is not whitespace", "{\v\"x\":[1,2,3]}"},
	} {
		t.Run(tc.name, func(t *testing.T) { diffDecode(t, []byte(tc.body), dim, maxRows) })
	}

	// encoding/json stops at 10000 open containers, the top-level object
	// among them; so does the skipper.
	for _, inner := range []int{maxDepth - 1, maxDepth} {
		body := `{"a":` + strings.Repeat("[", inner) + strings.Repeat("]", inner) + `,"x":[1,2,3]}`
		diffDecode(t, []byte(body), dim, maxRows)
		body = `{"a":` + strings.Repeat(`{"k":`, inner) + "1" + strings.Repeat("}", inner) + `,"x":[1,2,3]}`
		diffDecode(t, []byte(body), dim, maxRows)
		_, _, err := decodePredict([]byte(body), dim, maxRows)
		if (err == nil) != (inner < maxDepth) {
			t.Fatalf("nesting %d inside the top-level object: err = %v", inner, err)
		}
	}
}

// TestScanNumberMatchesParseFloat holds the number scanner alone to
// strconv over literals that crowd its exact paths and their borders: 13 to
// 21 digits, points anywhere, exponents around -19, 0 and ±22, exact ties.
func TestScanNumberMatchesParseFloat(t *testing.T) {
	check := func(lit string) {
		t.Helper()
		want, werr := strconv.ParseFloat(lit, 64)
		got, end, err := scanNumber([]byte(lit+","), 0)
		if (err != nil) != (werr != nil) || (err == nil && (math.Float64bits(got) != math.Float64bits(want) || end != len(lit))) {
			t.Fatalf("%s: got %v (%#x) end %d err %v; strconv gives %v (%#x) err %v",
				lit, got, math.Float64bits(got), end, err, want, math.Float64bits(want), werr)
		}
	}
	for _, lit := range []string{
		// Halfway between two floats, to be settled by ties-to-even.
		"9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5", "-4503599627370497.5",
		"900719925474099.3", "900719925474099.5", "1125899906842624.125", "1125899906842624.375",
		"0.5000000000000000277555756156289135105907917022705078125", "1152921504606846977", "1152921504606847105",
		// One past a tie in either direction, at every length the division takes.
		"4503599627370496.51", "4503599627370496.49", "4503599627370497.501", "4503599627370497.499",
		"9999999999999999999", "9999999999999999999e-19", "0.9999999999999999999", "18446744073709551615", "18446744073709551616",
		"1000000000000000000e-19", "1e-19", "0.0000000000000000001", "0.0000000000000000000", "-0.0000000000000000000",
		"0e-30", "0e30", "0.0e999", "1e22", "1e23", "1e-22", "1e-23", "999999999999999e22", "999999999999999e-22",
	} {
		check(lit)
	}
	rng := newRand(53)
	var sb strings.Builder
	for i := 0; i < 400000; i++ {
		sb.Reset()
		if rng.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		digits, point := 13+rng.Intn(9), -1
		if rng.Intn(6) > 0 {
			point = rng.Intn(digits)
		}
		if point == 0 {
			sb.WriteString("0")
		}
		for d := 0; d < digits; d++ {
			if d == point {
				sb.WriteByte('.')
			}
			c := "0123456789"[rng.Intn(10)]
			if d == 0 && point != 0 && c == '0' {
				c = '1'
			}
			if rng.Intn(3) == 0 && d > 8 {
				c = "05"[rng.Intn(2)] // long runs of 0 and 5 sit near ties
			}
			sb.WriteByte(c)
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, "e%d", []int{-25, -23, -22, -20, -19, -18, -4, -1, 0, 1, 3, 7, 18, 21, 22, 23, 300, -300}[rng.Intn(18)])
		}
		check(sb.String())
	}
	// Exact ties by construction: an odd 54-bit integer times 5^k, over 10^k.
	for i := 0; i < 100000; i++ {
		k := rng.Intn(5)
		n := (uint64(1)<<53 | rng.Uint64()>>11 | 1) * []uint64{1, 5, 25, 125, 625}[k]
		lit := strconv.FormatUint(n, 10)
		if k > 0 {
			lit = lit[:len(lit)-k] + "." + lit[len(lit)-k:]
		}
		check(lit)
	}
}

// TestDecodeNamedDivergences lists every body the scanner answers
// differently from the reference; each is a 400, never other rows.
func TestDecodeNamedDivergences(t *testing.T) {
	for _, body := range []string{
		`{"x":[null,2,3]}`,                   // the reference reads 0
		`{"instances":[[1,2,3],[4,null,6]]}`, // likewise
		`{"x":[7,8,9],"x":[null,2,3]}`,       // the reference reads the stale 7
		`{"x":[null,2,3],"x":[4,5,6]}`,       // even where a later duplicate would win
	} {
		if _, _, err := refDecode([]byte(body), 3, 4); err != nil {
			t.Fatalf("%s: the reference refuses it (%v); it is no divergence", body, err)
		}
		if feed, _, err := decodePredict([]byte(body), 3, 4); !errors.Is(err, errNullElement) {
			t.Fatalf("%s: got feed %v, err %v; want errNullElement", body, feed, err)
		}
	}
}

// benchBody writes a request as the repo benchmark's client does: rows×dim
// standard normals in shortest round-trip 'g' form, no whitespace.
func benchBody(rows, dim int, seed int64) []byte {
	rng := newRand(seed)
	buf := []byte(`{"instances":[`)
	for r := 0; r < rows; r++ {
		if r > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j := 0; j < dim; j++ {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, rng.NormFloat64(), 'g', -1, 64)
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...)
}

// FuzzPredictDecode: arbitrary bytes never panic the scanner, it accepts
// and refuses exactly what the reference does outside the named cases (and
// reads the same rows), and it never takes more from the tensor pool than
// the body and the row limit allow.
func FuzzPredictDecode(f *testing.F) {
	g := &bodyGen{rng: newRand(1), dim: 3}
	for i := 0; i < 40; i++ {
		f.Add(g.body())
	}
	f.Add([]byte(`{"x":[null,2,3]}`))
	f.Add([]byte(`{"pad":"` + strings.Repeat("p", 300) + `","instances":[[1e-7,1e21,-0],[5e-324,0.1,1e999]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		diffDecode(t, body, 3, 4)
	})
}

// BenchmarkPredictDecode decodes the benchmark's body; ns/number is the
// time per literal, which compares across hosts that differ in speed.
func BenchmarkPredictDecode(b *testing.B) {
	const rows, dim = 16, 256
	body := benchBody(rows, dim, 1)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		feed, _, err := decodePredict(body, dim, 32)
		if err != nil {
			b.Fatal(err)
		}
		tensor.Recycle(feed)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*dim), "ns/number")
}

// checkNumber holds scanNumber at b[i] to strconv.ParseFloat of lit, the
// literal that starts there: the same bits and end, or both out of range.
func checkNumber(t *testing.T, b []byte, i int, lit string) {
	t.Helper()
	want, werr := strconv.ParseFloat(lit, 64)
	got, end, err := scanNumber(b, i)
	switch {
	case werr != nil:
		if !errors.Is(err, errFloatRange) || end != i+len(lit) {
			t.Fatalf("%q at %d: got end %d err %v; strconv: %v", b, i, end, err, werr)
		}
	case err != nil || end != i+len(lit) || math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%q at %d: got %v (%#x) end %d err %v; strconv reads %q as %v (%#x)",
			b, i, got, math.Float64bits(got), end, err, lit, want, math.Float64bits(want))
	}
}

// numberEnds is what may follow a number in a body: nothing (the body's
// last byte), whitespace, or a separator.
var numberEnds = []string{"", ",", "]", "}", " ", "\t", "\n", "\r"}

// TestScanNumberDigitRuns walks digit runs across every split the
// eight-byte words make: runs of 1 to 21 digits as the integer part, the
// fraction or both, each run ending before '.', 'e' or 'E', or ending the
// literal at the body's last byte or before any byte that may follow a
// number, with 0 to 8 bytes after that so the run's last word is full,
// partial or missing.
func TestScanNumberDigitRuns(t *testing.T) {
	rng := newRand(8)
	digits := func(n int, lead bool) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "0123456789"[rng.Intn(10)]
		}
		if lead {
			b[0] = "123456789"[rng.Intn(9)]
		}
		return string(b)
	}
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 19, 20, 21} {
		run, frac := digits(n, true), digits(n, false)
		for _, lit := range []string{
			run, "-" + run, "0." + frac, "-0." + frac, "7." + frac, // the run ends the literal
			run + ".5", run + "." + frac, // an integer run before '.'
			run + "e3", run + "E-2", "0." + frac + "e-7", "1." + frac + "E+11", // before 'e' or 'E'
		} {
			for _, delim := range numberEnds {
				for pad := 0; pad <= 8; pad++ {
					if delim == "" && pad > 0 {
						break
					}
					body := []byte("[" + lit + delim + strings.Repeat("]", pad))
					checkNumber(t, body, 1, lit)
				}
			}
		}
	}
}

// TestScanNumberStopsAtNonDigits puts the bytes on either side of '0'..'9'
// — '/' and ':' — and the digits' own bytes with the top bit set at every
// place of an eight-byte word, in the integer part and in the fraction:
// the number must end just before them.
func TestScanNumberStopsAtNonDigits(t *testing.T) {
	const run = "1234567890123456789012"
	for _, c := range []byte{'/', ':', '/' | 0x80, '0' | 0x80, '9' | 0x80, ':' | 0x80, 0, 0xFF} {
		for k := 1; k < len(run); k++ {
			body := []byte(run + "]")
			body[k] = c
			checkNumber(t, body, 0, run[:k])
			body = []byte("0." + run + "]")
			body[2+k] = c
			checkNumber(t, body, 0, "0."+run[:k])
		}
	}
}

// TestPow10NegTable recomputes every entry of pow10neg with math/big:
// 10^-q·2^(127-p), rounded down, where p = floorLog2Pow10(-q), must be the
// entry and have exactly 128 bits — which also holds p to ⌊log2 10^-q⌋.
func TestPow10NegTable(t *testing.T) {
	for q := 1; q <= len(pow10neg); q++ {
		p := floorLog2Pow10(-q)
		want := new(big.Int).Lsh(big.NewInt(1), uint(127-p))
		want.Quo(want, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(q)), nil))
		got := new(big.Int).Lsh(new(big.Int).SetUint64(pow10neg[q-1][0]), 64)
		got.Or(got, new(big.Int).SetUint64(pow10neg[q-1][1]))
		if want.BitLen() != 128 {
			t.Errorf("1e-%d: floorLog2Pow10 gives %d, not ⌊log2 10^-%d⌋", q, p, q)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("1e-%d: table holds %#x, want %#x", q, got, want)
		}
	}
}

// splitLiteral reads a plain decimal literal (no exponent) as scanNumber
// hands it to exactFloat.
func splitLiteral(lit string) (mant uint64, digits, exp10 int) {
	lit = strings.TrimPrefix(lit, "-")
	if p := strings.IndexByte(lit, '.'); p >= 0 {
		exp10 = p + 1 - len(lit)
		lit = lit[:p] + lit[p+1:]
	}
	mant, err := strconv.ParseUint(lit, 10, 64)
	if err != nil {
		panic(err)
	}
	return mant, len(lit), exp10
}

// TestEiselLemireDeclinesTies: a literal exactly halfway between two
// float64s, with a point and at most 19 digits, is one that 128 bits of
// 10^exp10 cannot settle. exactFloat must decline it, so that it reaches
// strconv.ParseFloat, and the scanner must still read strconv's bits.
func TestEiselLemireDeclinesTies(t *testing.T) {
	declined := func(lit string) {
		t.Helper()
		if mant, digits, exp10 := splitLiteral(lit); digits <= 19 {
			if f, ok := exactFloat(mant, digits, exp10); ok {
				t.Fatalf("%s: exactFloat settles it as %v; a tie must go to strconv", lit, f)
			}
		}
		checkNumber(t, []byte(lit+","), 0, lit)
	}
	for _, lit := range []string{"4503599627370497.5", "-4503599627370497.5", "4503599627370496.5",
		"1125899906842624.125", "1125899906842624.375", "900719925474099.5"} {
		declined(lit)
	}
	// The constructed ties of TestScanNumberMatchesParseFloat: an odd 54-bit
	// integer times 5^k, over 10^k.
	rng, reached := newRand(53), 0
	for i := 0; i < 20000; i++ {
		k := 1 + rng.Intn(4)
		n := (uint64(1)<<53 | rng.Uint64()>>11 | 1) * []uint64{1, 5, 25, 125, 625}[k]
		lit := strconv.FormatUint(n, 10)
		lit = lit[:len(lit)-k] + "." + lit[len(lit)-k:]
		if len(lit) <= 20 {
			reached++
		}
		declined(lit)
	}
	if reached < 1000 {
		t.Fatalf("only %d of the constructed ties have at most 19 digits", reached)
	}
}

// numberGrammar is JSON's number (RFC 8259, section 6), the whole string.
var numberGrammar = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// FuzzScanNumber: a literal the JSON grammar accepts, followed by what may
// follow a number, is read to its end with strconv.ParseFloat's bits (or
// both find it out of range); one the grammar refuses is refused or read
// only in part.
func FuzzScanNumber(f *testing.F) {
	for i, lit := range []string{"0", "-0", "7", "-1.5", "0.1", "1e5", "1E-5", "-0.30000000000000004",
		"4503599627370497.5", "12345678901234567890", "9999999999999999999", "1.7976931348623159e308",
		"5e-324", "1e-400", "01", "1.", "-", "1e", "1.2.3", "12345678/", "1234567:", "0.12345678\xb0"} {
		f.Add(lit, uint8(i))
	}
	f.Fuzz(func(t *testing.T, lit string, end uint8) {
		if lit == "" || lit[0] != '-' && lit[0]-'0' >= 10 {
			return // scanNumber starts only at a '-' or a digit
		}
		body := []byte(lit + numberEnds[int(end)%len(numberEnds)])
		if numberGrammar.MatchString(lit) {
			checkNumber(t, body, 0, lit)
			return
		}
		if _, n, err := scanNumber(body, 0); err == nil && n >= len(lit) {
			t.Fatalf("%q is no JSON number, yet the scanner reads all of it", lit)
		}
	})
}

// raceBuild is set by race_test.go in a race build.
var raceBuild bool

// TestPredictDecodeAllocFree: once the tensor pool holds a feed, decoding
// the benchmark's body takes nothing from the heap (in a race build, only
// what the pool dropped).
func TestPredictDecodeAllocFree(t *testing.T) {
	body := benchBody(16, 256, 1)
	decode := func() {
		feed, _, err := decodePredict(body, 256, 32)
		if err != nil {
			t.Fatal(err)
		}
		tensor.Recycle(feed)
	}
	decode()
	budget := 0.0
	if raceBuild {
		budget = 2
	}
	if got := testing.AllocsPerRun(50, decode); got > budget {
		t.Fatalf("a warmed decode allocates %.0f objects, budget %.0f", got, budget)
	}
}
