package jsonscan

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// checkAgainstEncodingJSON holds the scanner to encoding/json on one
// input: Skip accepts exactly the documents json.Valid does, and a
// document that is a string or a number decodes to the same value.
func checkAgainstEncodingJSON(t *testing.T, data []byte) {
	t.Helper()
	s := Scanner{Data: data}
	err := s.Skip()
	valid := err == nil && s.AtEnd()
	if want := json.Valid(data); valid != want {
		t.Fatalf("Skip+AtEnd = %v (err %v), json.Valid = %v on %.80q (%d bytes)", valid, err, want, data, len(data))
	}
	if !valid {
		return
	}
	switch trimmed := bytes.TrimLeft(data, " \t\r\n"); {
	case trimmed[0] == '"':
		var want string
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		s = Scanner{Data: data}
		got, err := s.String()
		if err != nil || string(got) != want {
			t.Fatalf("String(%q) = %q, %v; encoding/json has %q", data, got, err, want)
		}
	case trimmed[0] == '-' || trimmed[0]-'0' <= 9:
		var want int64
		wantErr := json.Unmarshal(data, &want)
		got, _, err := Int(data, Space(data, 0))
		if (err == nil) != (wantErr == nil) || got != want {
			t.Fatalf("Int(%q) = %d, %v; encoding/json has %d, %v", data, got, err, want, wantErr)
		}
	}
}

var scanCorpus = []string{
	`0`, `-0`, `7`, `-12`, `01`, `-`, `1.5`, `1e3`, `1E+2`, `1e`, `1.`, `.5`, `12a`,
	`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
	`18446744073709551616`, `99999999999999999999999`, `00`,
	`""`, `"a"`, `"a\"b"`, `"é"`, `"😀"`, `"\ud83d"`, `"\ud83dx"`, `"\ud83dA"`,
	`"\udc00"`, `"\x41"`, `"\u12g4"`, `"\`, `"abc`, "\"a\tb\"", "\"\xff\"", "\"\xc3\xa9\"", `"\/\b\f\n\r\t\\"`,
	`null`, `true`, `false`, `nul`, `nullx`, ` null `, `tru`,
	`[]`, `[1,2]`, `[1,]`, `[,1]`, `[1 2]`, `[`, `]`, `[[]]`, `[}`,
	`{}`, `{"a":1}`, `{"a":1,}`, `{"a"}`, `{"a":}`, `{a:1}`, `{"a":1 "b":2}`, `{"a":{"b":[1,{"c":null}]}}`, `{`, `}`,
	``, ` `, `1 2`, `{} x`,
}

func TestScannerMatchesEncodingJSON(t *testing.T) {
	for _, doc := range scanCorpus {
		checkAgainstEncodingJSON(t, []byte(doc))
	}
	// One level past encoding/json's nesting limit, and one inside it.
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		checkAgainstEncodingJSON(t, []byte(strings.Repeat("[", depth)+strings.Repeat("]", depth)))
	}
}

func FuzzScannerMatchesEncodingJSON(f *testing.F) {
	for _, doc := range scanCorpus {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstEncodingJSON(t, data) })
}

// TestWalk drives Open/Member/Element/Null the way the decoders do, with
// the function Int on the Scanner's cursor, and checks the cursor lands
// where the next step expects it.
func TestWalk(t *testing.T) {
	s := Scanner{Data: []byte(` { "a" : [ 1 , -2 ] , "bc" : null , "d" : {"x":"y"} } tail`)}
	if err := s.Open('{'); err != nil {
		t.Fatal(err)
	}
	var seen []string
	for first := true; ; first = false {
		name, ok, err := s.Member(first)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen = append(seen, string(name))
		switch string(name) {
		case "a":
			if err := s.Open('['); err != nil {
				t.Fatal(err)
			}
			var sum int64
			for first := true; ; first = false {
				ok, err := s.Element(first)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				v, end, err := Int(s.Data, Space(s.Data, s.Pos))
				if err != nil {
					t.Fatal(err)
				}
				s.Pos, sum = end, sum+v
			}
			if sum != -1 {
				t.Fatalf("elements sum to %d, want -1", sum)
			}
		case "bc":
			if !s.Null() {
				t.Fatal("Null did not consume the literal")
			}
		default:
			if err := s.Skip(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := strings.Join(seen, ","); got != "a,bc,d" {
		t.Fatalf("members %s, want a,bc,d", got)
	}
	if s.AtEnd() || string(s.Data[s.Pos:]) != "tail" {
		t.Fatalf("cursor at %q, want it on the trailing bytes", s.Data[s.Pos:])
	}
}

func TestStringAliasesOnlyPlainInput(t *testing.T) {
	plain := []byte(`"conv2_block1"`)
	s := Scanner{Data: plain}
	got, _ := s.String()
	plain[1] = 'X'
	if got[0] != 'X' {
		t.Fatal("a plain string should alias the input, not copy it")
	}
	escaped := []byte(`"a\nb"`)
	s = Scanner{Data: escaped}
	got, _ = s.String()
	escaped[1] = 'X'
	if string(got) != "a\nb" {
		t.Fatalf("an unquoted string must not alias the input: %q", got)
	}
}
