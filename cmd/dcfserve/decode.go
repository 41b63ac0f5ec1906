package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/tensor"
)

// errNullElement is the one place the scanner deliberately parts from
// encoding/json, which reads a null inside a numeric array as "leave the
// slot as it is" (0 in a fresh slice, a stale value under a duplicate key).
var errNullElement = errors.New("null where a number is expected")

// errFloatRange reports a grammatical number no float64 can hold.
var errFloatRange = errors.New("number out of range for float64")

// maxDepth is encoding/json's nesting limit, kept so that the same bodies
// are refused for it.
const maxDepth = 10000

var keyX, keyInstances = []byte("x"), []byte("instances")

// literals maps a literal's first byte to the word.
var literals = [...]string{'t': "true", 'f': "false", 'n': "null"}

// decodePredict parses a /predict body in one pass, straight into a
// pool-backed [rows, dim] feed: {"x": [dim numbers]} (single) or
// {"instances": [[dim numbers], ...]} with 1..maxRows rows. It accepts what
// encoding/json accepts into struct{X []float64; Instances [][]float64}
// followed by the handler's shape checks — keys match case-insensitively,
// unknown keys are skipped, a later duplicate replaces an earlier one, a
// null value unsets its key, instances wins over x, bytes after the
// object's closing brace are not looked at — and returns the same rows bit
// for bit; errNullElement marks the exception. The caller owns feed and may
// Recycle it.
func decodePredict(body []byte, dim, maxRows int) (feed *tensor.Tensor, single bool, err error) {
	s := bodyScanner{b: body, dim: dim}
	s.x.capRows = 1
	// A full row is at least 2*dim+1 bytes of JSON, so a short body cannot
	// make the feed outgrow it, whatever maxRows allows.
	s.inst.capRows = min(maxRows, len(body)/(2*dim+1)+1)
	var pick *rowSink
	if err = s.object(); err == nil {
		pick, err = s.pick(maxRows)
	}
	for _, k := range [...]*rowSink{&s.x, &s.inst} {
		if k.t != nil && k != pick {
			tensor.Recycle(k.t)
		}
	}
	if err != nil {
		return nil, false, err
	}
	tensor.ShrinkRows(pick.t, pick.rows)
	return pick.t, pick == &s.x, nil
}

// bodyScanner walks one request body; i is the next unread byte.
type bodyScanner struct {
	b       []byte
	i       int
	dim     int
	x, inst rowSink
}

// rowSink is where one key's rows land. A duplicate key starts over in the
// same tensor, so only the last occurrence counts. Rows are counted and
// their lengths checked as they go by; whether that matters is decided at
// the end (pick), because a malformed occurrence that a later one replaces
// is no error.
type rowSink struct {
	t       *tensor.Tensor // [capRows, dim], allocated when the key first holds an array
	capRows int            // rows beyond it are counted, not stored
	set     bool           // the last occurrence was an array, not null
	rows    int
	badRow  int // first row whose length is not dim, or -1
	badLen  int
}

// pick chooses the key that speaks for the request and vets its shape.
func (s *bodyScanner) pick(maxRows int) (*rowSink, error) {
	k := &s.inst
	if !k.set {
		if k = &s.x; !k.set {
			return nil, fmt.Errorf(`want {"x": [%d floats]} or {"instances": [[%d floats], ...]}`, s.dim, s.dim)
		}
	}
	switch {
	case k.rows == 0:
		return nil, errors.New("no instances")
	case k.badRow >= 0:
		return nil, fmt.Errorf("instance %d has %d values, want %d", k.badRow, k.badLen, s.dim)
	case k.rows > maxRows:
		return nil, fmt.Errorf("%d instances in one request, at most %d", k.rows, maxRows)
	}
	return k, nil
}

// peek skips whitespace and returns the next byte without consuming it, or
// 0 (which no grammar rule accepts) at the end of the body.
func (s *bodyScanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
		default:
			return s.b[s.i]
		}
	}
	return 0
}

// bad reports b[i] as not being what the grammar wants there.
func bad(b []byte, i int, want string) error {
	if i >= len(b) {
		return fmt.Errorf("body ends where %s is expected", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", b[i], i, want)
}

// object scans the top-level object, routing each member by its key.
func (s *bodyScanner) object() error {
	if s.peek() != '{' {
		return bad(s.b, s.i, "a JSON object")
	}
	s.i++
	if s.peek() == '}' {
		return nil
	}
	for {
		key, err := s.key()
		if err != nil {
			return err
		}
		switch {
		case keyIs(key, keyX):
			err = s.rowsValue(&s.x, false)
		case keyIs(key, keyInstances):
			err = s.rowsValue(&s.inst, true)
		default:
			err = s.skipValue()
		}
		if err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			return nil
		default:
			return bad(s.b, s.i, "',' or '}' after an object member")
		}
	}
}

// keyIs reports whether an object key — raw is what stands between its
// quotes — names the field as encoding/json matches struct fields: after
// unescaping, under Unicode simple case folding.
func keyIs(raw, name []byte) bool {
	if bytes.IndexByte(raw, '\\') < 0 {
		return bytes.EqualFold(raw, name)
	}
	// Written entirely as \uXXXX escapes, a match is six bytes per rune.
	if len(raw) > 6*len(name) {
		return false
	}
	var buf [64]byte
	return bytes.EqualFold(appendUnescaped(buf[:0], raw), name)
}

// appendUnescaped appends to dst the string whose JSON spelling is raw,
// which str has already vetted. An unpaired surrogate becomes U+FFFD.
func appendUnescaped(dst, raw []byte) []byte {
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			dst = append(dst, c)
			continue
		}
		i++
		switch c = raw[i]; c {
		case 'u':
			r := hex4(raw[i+1:])
			i += 4
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u' {
					r2 = hex4(raw[i+3:])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			dst = utf8.AppendRune(dst, r)
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		default: // '"', '\\', '/'
			dst = append(dst, c)
		}
	}
	return dst
}

// hex4 reads four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(b[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// key scans an object key and the colon after it.
func (s *bodyScanner) key() (raw []byte, err error) {
	if s.peek() != '"' {
		return nil, bad(s.b, s.i, "an object key")
	}
	if raw, err = s.str(); err != nil {
		return nil, err
	}
	if s.peek() != ':' {
		return nil, bad(s.b, s.i, "':' after an object key")
	}
	s.i++
	return raw, nil
}

// str scans the string whose opening quote is at i and returns what stands
// between the quotes, escapes intact but checked.
func (s *bodyScanner) str() (raw []byte, err error) {
	b, start := s.b, s.i+1
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:i], nil
		case c == '\\':
			i++
			if i >= len(b) {
				return nil, bad(b, i, "an escape")
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if hex4(b[i+1:]) < 0 {
					return nil, fmt.Errorf(`invalid \u escape at offset %d`, i-1)
				}
				i += 4
			default:
				return nil, bad(b, i, "an escape")
			}
		case c < 0x20:
			return nil, bad(b, i, "a string without control characters")
		}
	}
	return nil, bad(b, len(b), `'"'`)
}

// literal consumes word ("null", "true", "false") at i.
func (s *bodyScanner) literal(word string) error {
	end := s.i + len(word)
	if end > len(s.b) || string(s.b[s.i:end]) != word {
		return bad(s.b, s.i, "the literal "+word)
	}
	s.i = end
	return nil
}

// rowsValue scans the value of x (one row) or of instances (rows, an array
// of rows): null unsets the key, an array replaces what the key held.
func (s *bodyScanner) rowsValue(k *rowSink, nested bool) error {
	switch s.peek() {
	case 'n':
		k.set = false
		return s.literal("null")
	case '[':
	default:
		return bad(s.b, s.i, "an array")
	}
	if k.t == nil {
		k.t = tensor.Alloc(tensor.Float, k.capRows, s.dim)
	}
	k.set, k.rows, k.badRow = true, 0, -1
	if !nested {
		return s.row(k)
	}
	s.i++
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for {
		switch s.peek() {
		case '[':
			if err := s.row(k); err != nil {
				return err
			}
		case 'n': // a null row is an empty one
			if err := s.literal("null"); err != nil {
				return err
			}
			k.add(0, s.dim)
		default:
			return bad(s.b, s.i, "an array of numbers")
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return nil
		default:
			return bad(s.b, s.i, "',' or ']' after an instance")
		}
	}
}

// add counts a finished row of n values.
func (k *rowSink) add(n, dim int) {
	if n != dim && k.badRow < 0 {
		k.badRow, k.badLen = k.rows, n
	}
	k.rows++
}

// row scans the array of numbers whose '[' is at i into k's next row: the
// first dim values are stored, all are counted.
func (s *bodyScanner) row(k *rowSink) error {
	var dst []float64
	if k.rows < k.capRows {
		dst = k.t.F[k.rows*s.dim : (k.rows+1)*s.dim]
	}
	s.i++
	n := 0
	if s.peek() == ']' {
		s.i++
		k.add(0, s.dim)
		return nil
	}
	for {
		switch c := s.peek(); {
		case c == '-' || '0' <= c && c <= '9':
			f, end, err := scanNumber(s.b, s.i)
			if err != nil {
				return fmt.Errorf("at offset %d: %w", s.i, err)
			}
			if n < len(dst) {
				dst[n] = f
			}
			n++
			s.i = end
		case c == 'n':
			return fmt.Errorf("at offset %d: %w", s.i, errNullElement)
		default:
			return bad(s.b, s.i, "a number")
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			k.add(n, s.dim)
			return nil
		default:
			return bad(s.b, s.i, "',' or ']' after a number")
		}
	}
}

// scanNumber scans the JSON number starting at b[i] (a '-' or a digit) and
// returns its value and the offset just past it. Each byte is read once:
// the digit runs that delimit the integer and fraction parts also build the
// mantissa (digitRun), and the exponent is summed as it is checked. A
// literal of at most 19 digits — its mantissa then fits a uint64 exactly —
// takes its value from exactFloat where one of its arms settles the
// rounding; every other literal, and every one exactFloat declines, from
// strconv.ParseFloat. Either way the value is the correctly rounded one the
// standard library gives. With errFloatRange, end is still valid.
func scanNumber(b []byte, i int) (f float64, end int, err error) {
	start := i
	if b[i] == '-' {
		i++
	}
	// Integer part: a lone 0, or digits that do not start with one. Most
	// are one digit, which needs no run.
	intStart := i
	var mant uint64
	switch {
	case i+1 < len(b) && b[i]-'0' < 10 && b[i+1]-'0' >= 10:
		mant = uint64(b[i] - '0')
		i++
	case i < len(b) && b[i] == '0':
		i++
	default:
		if mant, i = digitRun(b, i, 0); i == intStart {
			return 0, 0, bad(b, i, "a digit")
		}
	}
	digits, exp10 := i-intStart, 0
	if i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		if mant, i = digitRun(b, i, mant); i == fracStart {
			return 0, 0, bad(b, i, "a digit after the decimal point")
		}
		digits += i - fracStart
		exp10 = fracStart - i
	}
	small := true // the written exponent is below 1000
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		negExp := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			negExp = b[i] == '-'
			i++
		}
		expStart, e := i, 0
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if small = small && e < 100; small {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == expStart {
			return 0, 0, bad(b, i, "a digit in the exponent")
		}
		if negExp {
			e = -e
		}
		exp10 += e
	}
	if digits <= 19 && small {
		if f, ok := exactFloat(mant, digits, exp10); ok {
			if b[start] == '-' {
				f = -f
			}
			return f, i, nil
		}
	}
	f, perr := strconv.ParseFloat(string(b[start:i]), 64)
	if perr != nil {
		return 0, i, fmt.Errorf("%w: %.40s", errFloatRange, b[start:i])
	}
	return f, i, nil
}

// digitRun folds the run of decimal digits at b[i:] into mant and returns
// the result with the offset just past the run. While eight bytes remain it
// takes them as one little-endian word: one test finds how many of the
// eight lead with digits, and three multiplies turn those into their value.
// The body's last few bytes go one at a time. Past 19 digits mant wraps,
// which is harmless: scanNumber then reads the literal with strconv.
func digitRun(b []byte, i int, mant uint64) (uint64, int) {
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		// A byte is a digit when its top bit is clear and its low seven
		// bits reach '0' but not ':'. Adding 0x80-'0' and 0x80-':' to the
		// low seven bits sets bit 7 exactly for those that reach each, and
		// carries into no other byte.
		low := w & 0x7F7F7F7F7F7F7F7F
		notDigit := (w | ^(low + 0x5050505050505050) | (low + 0x4646464646464646)) & 0x8080808080808080
		n := bits.TrailingZeros64(notDigit) / 8 // the first byte is the lowest
		// The n digits go to the top of the word, zeros below them (ahead
		// of them as a number; with n = 0 the word is all zeros), then
		// adjacent digits fold into pairs, pairs into fours, fours into
		// the eight.
		w = (w & 0x0F0F0F0F0F0F0F0F) << uint(64-8*n)
		w = (w * (1 + 10<<8)) >> 8 & 0x00FF00FF00FF00FF
		w = (w * (1 + 100<<16)) >> 16 & 0x0000FFFF0000FFFF
		w = (w * (1 + 10000<<32)) >> 32
		mant = mant*pow10u[n] + w
		if n < 8 {
			return mant, i + n
		}
	}
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	return mant, i
}

// The powers of ten a float64 holds exactly, and those digitRun scales by.
var (
	pow10f = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
		1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
	pow10u = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
)

// exactFloat returns mant × 10^exp10 correctly rounded, as
// strconv.ParseFloat does, or declines (ok false) and leaves the literal to
// it; mant is exact, written with the given number of digits (at most 19).
// No arm divides one integer by another:
//   - Up to 15 digits and |exp10| ≤ 22: an integer below 2^53 times or over
//     an exact power of ten is one IEEE operation, hence correctly rounded
//     (Clinger's fast path, strconv's too). With exp10 = 0 any mant is one
//     conversion, one rounding.
//   - -19 ≤ exp10 < 0, what a float64 printed in shortest form looks like:
//     eiselLemire, which declines the few literals lying too close to a
//     tie for 128 bits of 10^exp10 to settle.
//   - Anything else: declined.
func exactFloat(mant uint64, digits, exp10 int) (f float64, ok bool) {
	switch {
	case mant == 0:
		return 0, true
	case exp10 == 0:
		return float64(mant), true
	case digits <= 15 && -22 <= exp10 && exp10 < 0:
		return float64(mant) / pow10f[-exp10], true
	case digits <= 15 && 0 < exp10 && exp10 <= 22:
		return float64(mant) * pow10f[exp10], true
	case -19 <= exp10 && exp10 < 0:
		return eiselLemire(mant, -exp10)
	}
	return 0, false
}

// pow10neg[q-1] is 10^-q's binary mantissa to 128 bits, rounded down:
// 10^-q = (hi·2^64 + lo + δ)·2^(p-127) with 0 ≤ δ < 1, p = ⌊log2 10^-q⌋ and
// hi's top bit set. TestPow10NegTable recomputes every entry.
var pow10neg = [19][2]uint64{
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3}, // 1e-2
	{0x83126E978D4FDF3B, 0x645A1CAC083126E9}, // 1e-3
	{0xD1B71758E219652B, 0xD3C36113404EA4A8}, // 1e-4
	{0xA7C5AC471B478423, 0x0FCF80DC33721D53}, // 1e-5
	{0x8637BD05AF6C69B5, 0xA63F9A49C2C1B10F}, // 1e-6
	{0xD6BF94D5E57A42BC, 0x3D32907604691B4C}, // 1e-7
	{0xABCC77118461CEFC, 0xFDC20D2B36BA7C3D}, // 1e-8
	{0x89705F4136B4A597, 0x31680A88F8953030}, // 1e-9
	{0xDBE6FECEBDEDD5BE, 0xB573440E5A884D1B}, // 1e-10
	{0xAFEBFF0BCB24AAFE, 0xF78F69A51539D748}, // 1e-11
	{0x8CBCCC096F5088CB, 0xF93F87B7442E45D3}, // 1e-12
	{0xE12E13424BB40E13, 0x2865A5F206B06FB9}, // 1e-13
	{0xB424DC35095CD80F, 0x538484C19EF38C94}, // 1e-14
	{0x901D7CF73AB0ACD9, 0x0F9D37014BF60A10}, // 1e-15
	{0xE69594BEC44DE15B, 0x4C2EBE687989A9B3}, // 1e-16
	{0xB877AA3236A4B449, 0x09BEFEB9FAD487C2}, // 1e-17
	{0x9392EE8E921D5D07, 0x3AFF322E62439FCF}, // 1e-18
	{0xEC1E4A7DB69561A5, 0x2B31E9E3D06C32E5}, // 1e-19
}

// floorLog2Pow10 is ⌊log2 10^e⌋: 217706/2^16 is log2 10 to within 2e-6,
// which holds the floor for every e the table has (TestPow10NegTable).
func floorLog2Pow10(e int) int { return 217706 * e >> 16 }

// eiselLemire returns mant × 10^-q (mant > 0, 1 ≤ q ≤ 19) by Lemire's
// algorithm ("Number Parsing at a Gigabyte per Second", SPE 2021), the one
// strconv.ParseFloat runs on such literals before any slower path. The
// product of mant and pow10neg[q-1], cut to 128 bits, falls short of the
// exact one and never over, so its top 54 bits round to the exact value's
// 53 unless a carry from what was cut could reach them, which needs every
// bit below them to be one. There it brings in the table's second word,
// and declines if the doubt remains — which is where an exact tie lands,
// since the product reads just below it. A product that reads as an exact
// tie is in truth above one, so rounding half up is right for it.
func eiselLemire(mant uint64, q int) (float64, bool) {
	pow := &pow10neg[q-1]
	lz := bits.LeadingZeros64(mant)
	m := mant << lz
	hi, lo := bits.Mul64(m, pow[0])
	if hi&0x1FF == 0x1FF && lo+m < m {
		// The table's second word can still carry into the rounding bits:
		// add its product, then decline if the doubt remains.
		hi2, lo2 := bits.Mul64(m, pow[1])
		var carry uint64
		lo, carry = bits.Add64(lo, hi2, 0)
		hi += carry
		if hi&0x1FF == 0x1FF && lo+1 == 0 && lo2+m < m {
			return 0, false
		}
	}
	top := hi >> 63 // the product's leading bit is bit 127 (1) or 126 (0)
	m54 := hi >> (top + 9)
	// Round the 54 bits to 53, half up; a carry out adds one bit.
	m53 := (m54 + m54&1) >> 1
	exp2 := uint64(floorLog2Pow10(-q)+64+1023-lz) - (1 - top)
	if m53>>53 != 0 {
		m53 >>= 1
		exp2++
	}
	// mant × 10^-q lies between 1e-19 and 1e18: the exponent is normal.
	return math.Float64frombits(exp2<<52 | m53&(1<<52-1)), true
}

// skipValue checks and steps over one value of any type — what an unknown
// key holds. It is iterative: an open container costs a depth count and one
// bit (set for an object), never a stack frame.
func (s *bodyScanner) skipValue() error {
	var isObject [maxDepth/64 + 1]uint64
	depth := 1 // the top-level object this value sits in
value:
	for {
		switch c := s.peek(); {
		case c == '{' || c == '[':
			s.i++
			if depth++; depth > maxDepth {
				return fmt.Errorf("nesting deeper than %d at offset %d", maxDepth, s.i-1)
			}
			word, bit, closer := &isObject[depth/64], uint64(1)<<(depth%64), byte(']')
			*word &^= bit
			if c == '{' {
				*word |= bit
				closer = '}'
			}
			if s.peek() != closer {
				if c == '{' {
					if _, err := s.key(); err != nil {
						return err
					}
				}
				continue value
			}
			s.i++
			depth--
		case c == '"':
			if _, err := s.str(); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			// Nothing stores this number, so it may be any size.
			_, end, err := scanNumber(s.b, s.i)
			if err != nil && !errors.Is(err, errFloatRange) {
				return fmt.Errorf("at offset %d: %w", s.i, err)
			}
			s.i = end
		case c == 't' || c == 'f' || c == 'n':
			if err := s.literal(literals[c]); err != nil {
				return err
			}
		default:
			return bad(s.b, s.i, "a value")
		}
		// A value has ended: close containers until one wants another.
		for depth > 1 {
			inObject := isObject[depth/64]&(1<<(depth%64)) != 0
			switch c := s.peek(); {
			case c == ',':
				s.i++
				if inObject {
					if _, err := s.key(); err != nil {
						return err
					}
				}
				continue value
			case c == '}' && inObject, c == ']' && !inObject:
				s.i++
				depth--
			default:
				return bad(s.b, s.i, "',' or a closing bracket")
			}
		}
		return nil
	}
}
