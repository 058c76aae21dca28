// Package jsonscan is the byte-level JSON scanner under the repo's two
// hand-written wire decoders: graph.ParseJSON and the request-envelope
// walker of internal/serve. It steps a cursor over a document already in
// memory, with no reflection and no intermediate values, and allocates
// only to unquote a string that carries an escape or a non-ASCII byte.
//
// The grammar is RFC 8259. String values follow encoding/json (invalid
// UTF-8 and unpaired surrogates decode to U+FFFD), so a decoder moved
// from encoding/json onto this scanner sees the same values.
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

// Scanner is a cursor over a JSON document. The zero value with Data set
// scans from the start; every method leaves Pos just past what it
// consumed.
type Scanner struct {
	Data []byte
	Pos  int
}

func (s *Scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("json: offset %d: %s", s.Pos, fmt.Sprintf(format, args...))
}

// space advances over whitespace and returns the byte under the cursor,
// or 0 at the end of the document.
func (s *Scanner) space() byte {
	d, i := s.Data, s.Pos
	for ; i < len(d); i++ {
		// All four whitespace bytes sort at or below the space.
		if c := d[i]; c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			s.Pos = i
			return c
		}
	}
	s.Pos = i
	return 0
}

// AtEnd reports whether only whitespace remains.
func (s *Scanner) AtEnd() bool {
	s.space()
	return s.Pos == len(s.Data)
}

// Null consumes a null literal when that is the next value.
func (s *Scanner) Null() bool {
	if s.space() != 'n' || !bytes.HasPrefix(s.Data[s.Pos:], []byte("null")) {
		return false
	}
	s.Pos += 4
	return true
}

// Open consumes the opening delimiter c of an object or an array.
func (s *Scanner) Open(c byte) error {
	if s.space() != c {
		return s.errorf("expected %q", c)
	}
	s.Pos++
	return nil
}

// Member steps to the next member of the object whose brace Open
// consumed: it returns the member's name, unquoted, with the cursor on
// the value. first is true for the first call after Open. ok is false
// once the closing brace is consumed.
func (s *Scanner) Member(first bool) (name []byte, ok bool, err error) {
	if ok, err = s.next(first, '}'); !ok {
		return nil, false, err
	}
	if name, err = s.String(); err != nil {
		return nil, false, err
	}
	if s.space() != ':' {
		return nil, false, s.errorf("expected ':' after a member name")
	}
	s.Pos++
	return name, true, nil
}

// Element is Member for the array whose bracket Open consumed: ok
// reports that the cursor is on another element.
func (s *Scanner) Element(first bool) (ok bool, err error) {
	return s.next(first, ']')
}

func (s *Scanner) next(first bool, closer byte) (bool, error) {
	switch c := s.space(); {
	case c == closer:
		s.Pos++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		s.Pos++
		return true, nil
	case s.Pos == len(s.Data):
		return false, s.errorf("unexpected end of input")
	default:
		return false, s.errorf("expected ',' or %q", closer)
	}
}

// plain marks the bytes a string holds as themselves: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// String consumes a string and returns its unquoted bytes. They alias
// Data unless the string held an escape or a non-ASCII byte.
func (s *Scanner) String() ([]byte, error) {
	if s.space() != '"' {
		return nil, s.errorf("expected a string")
	}
	d, start := s.Data, s.Pos+1
	i := start
	for i < len(d) && plain[d[i]] {
		i++
	}
	switch {
	case i == len(d):
		s.Pos = i
		return nil, s.errorf("unterminated string")
	case d[i] == '"':
		s.Pos = i + 1
		return d[start:i], nil
	default:
		return s.unquote(start, i)
	}
}

// unquote finishes String on the slow path: Data[start:i] is plain, and
// Data[i] is the first byte that needs decoding.
func (s *Scanner) unquote(start, i int) ([]byte, error) {
	d := s.Data
	out := append(make([]byte, 0, len(d[start:i])+32), d[start:i]...)
	for i < len(d) {
		switch c := d[i]; {
		case c == '"':
			s.Pos = i + 1
			return out, nil
		case c < ' ':
			s.Pos = i
			return nil, s.errorf("control character in a string")
		case c == '\\':
			if i+1 >= len(d) {
				s.Pos = len(d)
				return nil, s.errorf("unterminated string")
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
					s.Pos = i
					return nil, s.errorf("invalid \\u escape")
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
				s.Pos = i
				return nil, s.errorf("invalid escape %q", d[i:i+2])
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
	s.Pos = len(d)
	return nil, s.errorf("unterminated string")
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

// number consumes a number of the full JSON grammar.
func (s *Scanner) number() error {
	d := s.Data
	digits := func() bool {
		from := s.Pos
		for s.Pos < len(d) && d[s.Pos]-'0' <= 9 {
			s.Pos++
		}
		return s.Pos > from
	}
	if s.Pos < len(d) && d[s.Pos] == '-' {
		s.Pos++
	}
	if from := s.Pos; !digits() || (d[from] == '0' && s.Pos > from+1) {
		return s.errorf("invalid number")
	}
	if s.Pos < len(d) && d[s.Pos] == '.' {
		if s.Pos++; !digits() {
			return s.errorf("invalid number: no digits after the point")
		}
	}
	if s.Pos < len(d) && (d[s.Pos] == 'e' || d[s.Pos] == 'E') {
		s.Pos++
		if s.Pos < len(d) && (d[s.Pos] == '+' || d[s.Pos] == '-') {
			s.Pos++
		}
		if !digits() {
			return s.errorf("invalid number: no digits in the exponent")
		}
	}
	return nil
}

// Int consumes a number that must be an integer in the int64 range. A
// fraction or an exponent is an error, as it is when encoding/json
// decodes into an integer field.
func (s *Scanner) Int() (int64, error) {
	s.space()
	d, start := s.Data, s.Pos
	i := start
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
		if err := s.number(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("json: offset %d: number %s is not an integer", start, d[start:s.Pos])
	}
	s.Pos = i
	// 19 digits cannot wrap a uint64, and no int64 has more.
	neg := digits > start
	if n > 19 || (v > math.MaxInt64 && !(neg && v == math.MaxInt64+1)) {
		return 0, fmt.Errorf("json: offset %d: number %s overflows int64", start, d[start:i])
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// Skip consumes one value of any kind, checking that it is well formed.
func (s *Scanner) Skip() error { return s.skip(0) }

// skip consumes a value nested inside depth containers.
func (s *Scanner) skip(depth int) error {
	switch c := s.space(); {
	case (c == '{' || c == '[') && depth == maxDepth:
		return s.errorf("exceeded max depth")
	case c == '{':
		s.Pos++
		for first := true; ; first = false {
			_, ok, err := s.Member(first)
			if !ok {
				return err
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '[':
		s.Pos++
		for first := true; ; first = false {
			ok, err := s.Element(first)
			if !ok {
				return err
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := s.String()
		return err
	case c == '-' || c-'0' <= 9:
		return s.number()
	case s.Pos == len(s.Data):
		return s.errorf("unexpected end of input")
	}
	for _, lit := range []string{"true", "false", "null"} {
		if bytes.HasPrefix(s.Data[s.Pos:], []byte(lit)) {
			s.Pos += len(lit)
			return nil
		}
	}
	return s.errorf("invalid character %q at the start of a value", s.Data[s.Pos])
}
