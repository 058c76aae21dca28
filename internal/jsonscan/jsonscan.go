// Package jsonscan is the byte-level JSON grammar under the repo's two
// hand-written wire decoders: graph.ParseJSON and the request-envelope
// walker of internal/serve. Its primitives (Space, Null, String, Int,
// Skip) take a document already in memory and the offset of a token in
// it, and return the offset just past what they consumed, with no
// reflection and no intermediate values; they allocate only to unquote a
// string that carries an escape or a non-ASCII byte.
//
// A hot decoder keeps the offset in a local, tests the structural bytes
// (the brackets, ':' and ',') itself, and asks Unexpected for the error
// when one is missing. Scanner is a cursor over the same primitives for
// walks that are not hot: it adds one call per token and skips the
// whitespace before each.
//
// The grammar is RFC 8259. String values follow encoding/json (invalid
// UTF-8 and unpaired surrogates decode to U+FFFD), so a decoder moved
// from encoding/json onto this package sees the same values.
package jsonscan

import (
	"bytes"
	"fmt"
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth bounds container nesting in Skip, as encoding/json does.
const maxDepth = 10000

func errorAt(i int, format string, args ...any) error {
	return fmt.Errorf("json: offset %d: %s", i, fmt.Sprintf(format, args...))
}

// Unexpected is the error for d[i], found where the grammar wanted want:
// an opening '{' or '[', the ':' after a member name, or the closer '}'
// or ']' of a container (or the ',' before its next member or element).
func Unexpected(d []byte, i int, want byte) error {
	switch {
	case want == ':':
		return errorAt(i, "expected ':' after a member name")
	case want == '{' || want == '[':
		return errorAt(i, "expected %q", want)
	case i == len(d):
		return errorAt(i, "unexpected end of input")
	}
	return errorAt(i, "expected ',' or %q", want)
}

// Space returns the offset of the first byte at or after i that is not
// whitespace, or len(d).
func Space(d []byte, i int) int {
	// All four whitespace bytes sort at or below the space.
	for i < len(d) && d[i] <= ' ' && (d[i] == ' ' || d[i] == '\n' || d[i] == '\t' || d[i] == '\r') {
		i++
	}
	return i
}

// Null reports whether the literal null starts at d[i], and returns the
// offset past it if so and i if not.
func Null(d []byte, i int) (int, bool) {
	if len(d)-i >= 4 && d[i] == 'n' && d[i+1] == 'u' && d[i+2] == 'l' && d[i+3] == 'l' {
		return i + 4, true
	}
	return i, false
}

// plain marks the bytes a string holds as themselves: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// String scans the string that starts at d[i] and returns its unquoted
// bytes and the offset past its closing quote. The bytes alias d unless
// the string held an escape or a non-ASCII byte. On an error the offset
// is where scanning stopped.
func String(d []byte, i int) ([]byte, int, error) {
	if i == len(d) || d[i] != '"' {
		return nil, i, errorAt(i, "expected a string")
	}
	start := i + 1
	i = start
	for i < len(d) && plain[d[i]] {
		i++
	}
	switch {
	case i == len(d):
		return nil, i, errorAt(i, "unterminated string")
	case d[i] == '"':
		return d[start:i], i + 1, nil
	}
	return unquote(d, start, i)
}

// unquote finishes String on the slow path: d[start:i] is plain, and
// d[i] is the first byte that needs decoding.
func unquote(d []byte, start, i int) ([]byte, int, error) {
	out := append(make([]byte, 0, len(d[start:i])+32), d[start:i]...)
	for i < len(d) {
		switch c := d[i]; {
		case c == '"':
			return out, i + 1, nil
		case c < ' ':
			return nil, i, errorAt(i, "control character in a string")
		case c == '\\':
			if i+1 >= len(d) {
				return nil, len(d), errorAt(len(d), "unterminated string")
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d[i:])
				if r < 0 {
					return nil, i, errorAt(i, "invalid \\u escape")
				}
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune; a lone half is U+FFFD and
					// whatever follows it is decoded on its own.
					if pair := utf16.DecodeRune(r, hex4(d[i+6:])); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				return nil, i, errorAt(i, "invalid escape %q", d[i:i+2])
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return nil, len(d), errorAt(len(d), "unterminated string")
}

// hex4 decodes a \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number scans a number of the full JSON grammar that starts at d[i]
// and returns the offset past it.
func number(d []byte, i int) (int, error) {
	digits := func() bool {
		from := i
		for i < len(d) && d[i]-'0' <= 9 {
			i++
		}
		return i > from
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if from := i; !digits() || (d[from] == '0' && i > from+1) {
		return i, errorAt(i, "invalid number")
	}
	if i < len(d) && d[i] == '.' {
		if i++; !digits() {
			return i, errorAt(i, "invalid number: no digits after the point")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			return i, errorAt(i, "invalid number: no digits in the exponent")
		}
	}
	return i, nil
}

// Int scans the number that starts at d[i], which must be an integer in
// the int64 range, and returns it and the offset past it. A fraction or
// an exponent is an error, as it is when encoding/json decodes into an
// integer field.
func Int(d []byte, i int) (int64, int, error) {
	start := i
	if i < len(d) && d[i] == '-' {
		i++
	}
	digits := i
	var v uint64
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		v = v*10 + uint64(d[i]-'0')
	}
	n := i - digits
	if n == 0 || (d[digits] == '0' && n > 1) || (i < len(d) && (d[i] == '.' || d[i] == 'e' || d[i] == 'E')) {
		end, err := number(d, start)
		if err != nil {
			return 0, end, err
		}
		return 0, end, errorAt(start, "number %s is not an integer", d[start:end])
	}
	// 19 digits cannot wrap a uint64, and no int64 has more.
	neg := digits > start
	if n > 19 || (v > math.MaxInt64 && !(neg && v == math.MaxInt64+1)) {
		return 0, i, errorAt(start, "number %s overflows int64", d[start:i])
	}
	if neg {
		return -int64(v), i, nil
	}
	return int64(v), i, nil
}

// Skip scans one value of any kind that starts at d[i], checking that it
// is well formed, and returns the offset past it.
func Skip(d []byte, i int) (int, error) { return skip(d, i, 0) }

// skip is Skip for a value nested inside depth containers.
func skip(d []byte, i, depth int) (int, error) {
	if i == len(d) {
		return i, errorAt(i, "unexpected end of input")
	}
	switch c := d[i]; {
	case (c == '{' || c == '[') && depth == maxDepth:
		return i, errorAt(i, "exceeded max depth")
	case c == '{' || c == '[':
		closer := c + 2 // '}' and ']' follow their openers two bytes on
		i++
		for first := true; ; first = false {
			var ok bool
			var err error
			if i, ok, err = next(d, Space(d, i), first, closer); !ok {
				return i, err
			}
			if i = Space(d, i); c == '{' {
				if _, i, err = String(d, i); err != nil {
					return i, err
				}
				if i = Space(d, i); i == len(d) || d[i] != ':' {
					return i, Unexpected(d, i, ':')
				}
				i = Space(d, i+1)
			}
			if i, err = skip(d, i, depth+1); err != nil {
				return i, err
			}
		}
	case c == '"':
		_, i, err := String(d, i)
		return i, err
	case c == '-' || c-'0' <= 9:
		return number(d, i)
	}
	for _, lit := range []string{"true", "false", "null"} {
		if bytes.HasPrefix(d[i:], []byte(lit)) {
			return i + len(lit), nil
		}
	}
	return i, errorAt(i, "invalid character %q at the start of a value", d[i])
}

// next steps from d[i], the first byte that is not whitespace after a
// container's opener or after one of its members or elements, towards
// the next one: past the ',' unless first. ok is false once the closer
// is consumed.
func next(d []byte, i int, first bool, closer byte) (int, bool, error) {
	switch {
	case i < len(d) && d[i] == closer:
		return i + 1, false, nil
	case first:
		return i, true, nil
	case i < len(d) && d[i] == ',':
		return i + 1, true, nil
	}
	return i, false, Unexpected(d, i, closer)
}

// Scanner is a cursor over a JSON document. The zero value with Data set
// scans from the start; every method skips the whitespace before its
// token and leaves Pos just past what it consumed.
type Scanner struct {
	Data []byte
	Pos  int
}

// AtEnd reports whether only whitespace remains.
func (s *Scanner) AtEnd() bool {
	s.Pos = Space(s.Data, s.Pos)
	return s.Pos == len(s.Data)
}

// Null consumes a null literal when that is the next value.
func (s *Scanner) Null() (ok bool) {
	s.Pos, ok = Null(s.Data, Space(s.Data, s.Pos))
	return ok
}

// Open consumes the opening delimiter c of an object or an array.
func (s *Scanner) Open(c byte) error {
	if s.Pos = Space(s.Data, s.Pos); s.Pos == len(s.Data) || s.Data[s.Pos] != c {
		return Unexpected(s.Data, s.Pos, c)
	}
	s.Pos++
	return nil
}

// Member steps to the next member of the object whose brace Open
// consumed: it returns the member's name, unquoted, with the cursor on
// the value. first is true for the first call after Open. ok is false
// once the closing brace is consumed.
func (s *Scanner) Member(first bool) (name []byte, ok bool, err error) {
	d := s.Data
	if s.Pos, ok, err = next(d, Space(d, s.Pos), first, '}'); !ok {
		return nil, false, err
	}
	if name, s.Pos, err = String(d, Space(d, s.Pos)); err != nil {
		return nil, false, err
	}
	if s.Pos = Space(d, s.Pos); s.Pos == len(d) || d[s.Pos] != ':' {
		return nil, false, Unexpected(d, s.Pos, ':')
	}
	s.Pos++
	return name, true, nil
}

// Element is Member for the array whose bracket Open consumed: ok
// reports that the cursor is on another element.
func (s *Scanner) Element(first bool) (ok bool, err error) {
	s.Pos, ok, err = next(s.Data, Space(s.Data, s.Pos), first, ']')
	return ok, err
}

// String consumes a string and returns its unquoted bytes. They alias
// Data unless the string held an escape or a non-ASCII byte.
func (s *Scanner) String() (v []byte, err error) {
	v, s.Pos, err = String(s.Data, Space(s.Data, s.Pos))
	return v, err
}

// Skip consumes one value of any kind, checking that it is well formed.
func (s *Scanner) Skip() (err error) {
	s.Pos, err = Skip(s.Data, Space(s.Data, s.Pos))
	return err
}
