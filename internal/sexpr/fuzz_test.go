package sexpr

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// FuzzParse: the parser must never panic; it must build the same trees
// and fail with the same errors as the reference parser below, positions
// aside; and whatever parses must round-trip through String back to an
// equivalent tree.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"(make-class 'Vehicle :attributes '((Id :domain integer)))",
		`(define v (make Vehicle :Color "red"))`,
		"(components-of v :level 2 :classes (A B))",
		"#1:2",
		"'(a 'b ((c)))",
		`"str with \" escape"`,
		"; comment\n(a)",
		"(((((deep)))))",
		"-42 2.5 true nil :kw sym",
		"(a . b)", // dot is just a symbol here
		"(ユニコード \"日本\")",
		"(a\u00a0b\u0085c\u2003d) NİL",
		"\"bad \xff byte\" sym\xfe :kw\xc3 #1:\xff",
		"(a \x00 b)",
		`"\é"`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		nodes, err := ParseAll(src)
		want, wantErr := refParseAll(src)
		if msg, wantMsg := errText(err), errText(wantErr); msg != wantMsg {
			t.Fatalf("ParseAll(%q): error %q, reference %q", src, msg, wantMsg)
		}
		if err == nil {
			if len(nodes) != len(want) {
				t.Fatalf("ParseAll(%q): %d nodes, reference %d", src, len(nodes), len(want))
			}
			for i := range nodes {
				if why := sameTree(nodes[i], want[i]); why != "" {
					t.Fatalf("ParseAll(%q) node %d: %s", src, i, why)
				}
			}
		}
		n, err := Parse(src)
		wantN, wantErr := refParse(src)
		if msg, wantMsg := errText(err), errText(wantErr); msg != wantMsg {
			t.Fatalf("Parse(%q): error %q, reference %q", src, msg, wantMsg)
		}
		if err == nil {
			if why := sameTree(n, wantN); why != "" {
				t.Fatalf("Parse(%q): %s", src, why)
			}
		}

		if nodes == nil {
			return
		}
		// Render and re-parse: must succeed and produce the same rendering
		// (String is a normal form).
		var b strings.Builder
		for _, n := range nodes {
			b.WriteString(n.String())
			b.WriteString(" ")
		}
		again, err := ParseAll(b.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", b.String(), src, err)
		}
		if len(again) != len(nodes) {
			t.Fatalf("node count changed: %d -> %d", len(nodes), len(again))
		}
		for i := range nodes {
			if nodes[i].String() != again[i].String() {
				t.Fatalf("not a normal form: %q vs %q", nodes[i].String(), again[i].String())
			}
		}
	})
}

var errPos = regexp.MustCompile(` at [0-9]+: `)

// errText is err's message with its source positions blanked: the
// parser counts bytes, the reference runes.
func errText(err error) string {
	if err == nil {
		return ""
	}
	if !errors.Is(err, ErrParse) {
		return "not a parse error: " + err.Error()
	}
	return errPos.ReplaceAllString(err.Error(), " at _: ")
}

// sameTree compares a parsed tree with the reference's, positions aside,
// and says where they differ.
func sameTree(n Node, r refNode) string {
	if n.Kind != r.Kind {
		return fmt.Sprintf("kind %v, reference %v", n.Kind, r.Kind)
	}
	var same bool
	switch n.Kind {
	case NSym, NKeyword:
		same = n.Text == r.Sym
	case NString:
		same = n.Text == r.Str
	case NInt:
		same = n.Int() == r.Int
	case NReal:
		same = math.Float64bits(n.Real()) == math.Float64bits(r.Real)
	case NBool:
		same = n.Bool() == r.Bool
	case NRef:
		same = uint64(n.Ref().Class) == r.Ref[0] && n.Ref().Serial == r.Ref[1]
	default:
		same = true
	}
	if !same {
		return fmt.Sprintf("%s, reference %+v", n, r)
	}
	if len(n.Kids) != len(r.Kids) {
		return fmt.Sprintf("%s has %d kids, reference %d", n, len(n.Kids), len(r.Kids))
	}
	for i := range n.Kids {
		if why := sameTree(n.Kids[i], r.Kids[i]); why != "" {
			return why
		}
	}
	return ""
}

// The reference parser reads a []rune copy of the source one rune at a
// time, into nodes with one field per payload. FuzzParse holds the
// parser to its trees and errors.

type refNode struct {
	Kind NodeKind
	Sym  string
	Str  string
	Int  int64
	Real float64
	Bool bool
	Kids []refNode
	Ref  [2]uint64
	Pos  int
}

type refLexer struct {
	src []rune
	pos int
}

func (l *refLexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) next() rune {
	r := l.peek()
	l.pos++
	return r
}

func (l *refLexer) skipSpace() {
	for {
		for l.pos < len(l.src) && unicode.IsSpace(l.src[l.pos]) {
			l.pos++
		}
		// ; comments run to end of line.
		if l.peek() == ';' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func refIsDelim(r rune) bool {
	return r == 0 || r == '(' || r == ')' || r == '\'' || r == '"' || r == ';' || unicode.IsSpace(r)
}

// refParse parses a single expression from src.
func refParse(src string) (refNode, error) {
	l := &refLexer{src: []rune(src)}
	n, err := refParseExpr(l)
	if err != nil {
		return refNode{}, err
	}
	l.skipSpace()
	if l.pos < len(l.src) {
		return refNode{}, fmt.Errorf("trailing input at %d: %w", l.pos, ErrParse)
	}
	return n, nil
}

// refParseAll parses a sequence of expressions (a program).
func refParseAll(src string) ([]refNode, error) {
	l := &refLexer{src: []rune(src)}
	var out []refNode
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			return out, nil
		}
		n, err := refParseExpr(l)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
}

func refParseExpr(l *refLexer) (refNode, error) {
	l.skipSpace()
	pos := l.pos
	switch r := l.peek(); {
	case r == 0:
		return refNode{}, fmt.Errorf("unexpected end of input: %w", ErrParse)
	case r == '(':
		l.next()
		n := refNode{Kind: NList, Pos: pos}
		for {
			l.skipSpace()
			if l.peek() == ')' {
				l.next()
				return n, nil
			}
			if l.peek() == 0 {
				return refNode{}, fmt.Errorf("unclosed '(' at %d: %w", pos, ErrParse)
			}
			kid, err := refParseExpr(l)
			if err != nil {
				return refNode{}, err
			}
			n.Kids = append(n.Kids, kid)
		}
	case r == ')':
		return refNode{}, fmt.Errorf("unexpected ')' at %d: %w", pos, ErrParse)
	case r == '\'':
		l.next()
		kid, err := refParseExpr(l)
		if err != nil {
			return refNode{}, err
		}
		return refNode{Kind: NQuote, Kids: []refNode{kid}, Pos: pos}, nil
	case r == '"':
		return refParseString(l)
	case r == ':':
		l.next()
		sym := refReadToken(l)
		if sym == "" {
			return refNode{}, fmt.Errorf("empty keyword at %d: %w", pos, ErrParse)
		}
		return refNode{Kind: NKeyword, Sym: sym, Pos: pos}, nil
	case r == '#':
		return refParseRef(l)
	default:
		return refParseAtom(l)
	}
}

func refParseString(l *refLexer) (refNode, error) {
	pos := l.pos
	l.next() // opening quote
	var b strings.Builder
	for {
		r := l.next()
		switch r {
		case 0:
			return refNode{}, fmt.Errorf("unclosed string at %d: %w", pos, ErrParse)
		case '"':
			return refNode{Kind: NString, Str: b.String(), Pos: pos}, nil
		case '\\':
			esc := l.next()
			switch esc {
			case 'n':
				b.WriteRune('\n')
			case 't':
				b.WriteRune('\t')
			case '"', '\\':
				b.WriteRune(esc)
			default:
				return refNode{}, fmt.Errorf("bad escape \\%c at %d: %w", esc, l.pos, ErrParse)
			}
		default:
			b.WriteRune(r)
		}
	}
}

func refParseRef(l *refLexer) (refNode, error) {
	pos := l.pos
	l.next() // '#'
	tok := refReadToken(l)
	parts := strings.Split(tok, ":")
	if len(parts) != 2 {
		return refNode{}, fmt.Errorf("bad reference #%s at %d: %w", tok, pos, ErrParse)
	}
	c, err1 := strconv.ParseUint(parts[0], 10, 32)
	s, err2 := strconv.ParseUint(parts[1], 10, 64)
	if err1 != nil || err2 != nil {
		return refNode{}, fmt.Errorf("bad reference #%s at %d: %w", tok, pos, ErrParse)
	}
	return refNode{Kind: NRef, Ref: [2]uint64{c, s}, Pos: pos}, nil
}

func refReadToken(l *refLexer) string {
	start := l.pos
	for !refIsDelim(l.peek()) {
		l.pos++
	}
	return string(l.src[start:l.pos])
}

func refParseAtom(l *refLexer) (refNode, error) {
	pos := l.pos
	tok := refReadToken(l)
	if tok == "" {
		return refNode{}, fmt.Errorf("empty token at %d: %w", pos, ErrParse)
	}
	switch {
	case refLowerIs(tok, "nil"):
		return refNode{Kind: NNil, Pos: pos}, nil
	case refLowerIs(tok, "true"), refLowerIs(tok, "t"):
		return refNode{Kind: NBool, Bool: true, Pos: pos}, nil
	case refLowerIs(tok, "false"):
		return refNode{Kind: NBool, Bool: false, Pos: pos}, nil
	}
	if !refMaybeNumber(tok) {
		return refNode{Kind: NSym, Sym: tok, Pos: pos}, nil
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return refNode{Kind: NInt, Int: i, Pos: pos}, nil
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return refNode{Kind: NReal, Real: f, Pos: pos}, nil
	}
	return refNode{Kind: NSym, Sym: tok, Pos: pos}, nil
}

// refLowerIs reports strings.ToLower(tok) == word for an ASCII word without
// building the lowered copy.
func refLowerIs(tok, word string) bool {
	i := 0
	for _, r := range tok {
		if i == len(word) || unicode.ToLower(r) != rune(word[i]) {
			return false
		}
		i++
	}
	return i == len(word)
}

// refMaybeNumber is false for a token that neither strconv.ParseInt nor
// strconv.ParseFloat can accept, so a plain symbol skips both calls and
// the errors they allocate. Everything those parsers accept has, after
// one optional sign, a digit or '.' first, or is inf, infinity or nan in
// any case.
func refMaybeNumber(tok string) bool {
	if tok[0] == '+' || tok[0] == '-' {
		tok = tok[1:]
	}
	if tok == "" {
		return false
	}
	if c := tok[0]; c == '.' || '0' <= c && c <= '9' {
		return true
	}
	return strings.EqualFold(tok, "inf") || strings.EqualFold(tok, "infinity") || strings.EqualFold(tok, "nan")
}
