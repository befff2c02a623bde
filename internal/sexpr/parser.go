package sexpr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ErrParse wraps all syntax errors.
var ErrParse = errors.New("sexpr: parse error")

type lexer struct {
	src []rune
	pos int
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) next() rune {
	r := l.peek()
	l.pos++
	return r
}

func (l *lexer) skipSpace() {
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

func isDelim(r rune) bool {
	return r == 0 || r == '(' || r == ')' || r == '\'' || r == '"' || r == ';' || unicode.IsSpace(r)
}

// Parse parses a single expression from src.
func Parse(src string) (Node, error) {
	l := &lexer{src: []rune(src)}
	n, err := parseExpr(l)
	if err != nil {
		return Node{}, err
	}
	l.skipSpace()
	if l.pos < len(l.src) {
		return Node{}, fmt.Errorf("trailing input at %d: %w", l.pos, ErrParse)
	}
	return n, nil
}

// ParseAll parses a sequence of expressions (a program).
func ParseAll(src string) ([]Node, error) {
	l := &lexer{src: []rune(src)}
	var out []Node
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			return out, nil
		}
		n, err := parseExpr(l)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
}

func parseExpr(l *lexer) (Node, error) {
	l.skipSpace()
	pos := l.pos
	switch r := l.peek(); {
	case r == 0:
		return Node{}, fmt.Errorf("unexpected end of input: %w", ErrParse)
	case r == '(':
		l.next()
		n := Node{Kind: NList, Pos: pos}
		for {
			l.skipSpace()
			if l.peek() == ')' {
				l.next()
				return n, nil
			}
			if l.peek() == 0 {
				return Node{}, fmt.Errorf("unclosed '(' at %d: %w", pos, ErrParse)
			}
			kid, err := parseExpr(l)
			if err != nil {
				return Node{}, err
			}
			n.Kids = append(n.Kids, kid)
		}
	case r == ')':
		return Node{}, fmt.Errorf("unexpected ')' at %d: %w", pos, ErrParse)
	case r == '\'':
		l.next()
		kid, err := parseExpr(l)
		if err != nil {
			return Node{}, err
		}
		return Node{Kind: NQuote, Kids: []Node{kid}, Pos: pos}, nil
	case r == '"':
		return parseString(l)
	case r == ':':
		l.next()
		sym := readToken(l)
		if sym == "" {
			return Node{}, fmt.Errorf("empty keyword at %d: %w", pos, ErrParse)
		}
		return Node{Kind: NKeyword, Sym: sym, Pos: pos}, nil
	case r == '#':
		return parseRef(l)
	default:
		return parseAtom(l)
	}
}

func parseString(l *lexer) (Node, error) {
	pos := l.pos
	l.next() // opening quote
	var b strings.Builder
	for {
		r := l.next()
		switch r {
		case 0:
			return Node{}, fmt.Errorf("unclosed string at %d: %w", pos, ErrParse)
		case '"':
			return Node{Kind: NString, Str: b.String(), Pos: pos}, nil
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
				return Node{}, fmt.Errorf("bad escape \\%c at %d: %w", esc, l.pos, ErrParse)
			}
		default:
			b.WriteRune(r)
		}
	}
}

func parseRef(l *lexer) (Node, error) {
	pos := l.pos
	l.next() // '#'
	tok := readToken(l)
	parts := strings.Split(tok, ":")
	if len(parts) != 2 {
		return Node{}, fmt.Errorf("bad reference #%s at %d: %w", tok, pos, ErrParse)
	}
	c, err1 := strconv.ParseUint(parts[0], 10, 32)
	s, err2 := strconv.ParseUint(parts[1], 10, 64)
	if err1 != nil || err2 != nil {
		return Node{}, fmt.Errorf("bad reference #%s at %d: %w", tok, pos, ErrParse)
	}
	return Node{Kind: NRef, Ref: [2]uint64{c, s}, Pos: pos}, nil
}

func readToken(l *lexer) string {
	start := l.pos
	for !isDelim(l.peek()) {
		l.pos++
	}
	return string(l.src[start:l.pos])
}

func parseAtom(l *lexer) (Node, error) {
	pos := l.pos
	tok := readToken(l)
	if tok == "" {
		return Node{}, fmt.Errorf("empty token at %d: %w", pos, ErrParse)
	}
	switch {
	case lowerIs(tok, "nil"):
		return Node{Kind: NNil, Pos: pos}, nil
	case lowerIs(tok, "true"), lowerIs(tok, "t"):
		return Node{Kind: NBool, Bool: true, Pos: pos}, nil
	case lowerIs(tok, "false"):
		return Node{Kind: NBool, Bool: false, Pos: pos}, nil
	}
	if !maybeNumber(tok) {
		return Node{Kind: NSym, Sym: tok, Pos: pos}, nil
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return Node{Kind: NInt, Int: i, Pos: pos}, nil
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return Node{Kind: NReal, Real: f, Pos: pos}, nil
	}
	return Node{Kind: NSym, Sym: tok, Pos: pos}, nil
}

// lowerIs reports strings.ToLower(tok) == word for an ASCII word without
// building the lowered copy.
func lowerIs(tok, word string) bool {
	i := 0
	for _, r := range tok {
		if i == len(word) || unicode.ToLower(r) != rune(word[i]) {
			return false
		}
		i++
	}
	return i == len(word)
}

// maybeNumber is false for a token that neither strconv.ParseInt nor
// strconv.ParseFloat can accept, so a plain symbol skips both calls and
// the errors they allocate. Everything those parsers accept has, after
// one optional sign, a digit or '.' first, or is inf, infinity or nan in
// any case.
func maybeNumber(tok string) bool {
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
