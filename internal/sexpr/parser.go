package sexpr

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// ErrParse wraps all syntax errors.
var ErrParse = errors.New("sexpr: parse error")

// parser lexes src byte by byte: ASCII takes a table lookup, anything
// else is decoded with utf8.DecodeRuneInString. An invalid byte reads as
// U+FFFD, as a conversion to []rune would read it. A NUL byte ends
// input, as the end of src does.
//
// The kids of every open list collect on stack, innermost list last; a
// closing ')' copies its list's kids into a slice of their exact number
// and pops them. The stack is pooled across parses and holds no node
// between them: a popped slot is zeroed as it is popped.
type parser struct {
	src   string
	pos   int
	stack []Node
	box   *[]Node // the pool's handle on stack
}

// maxPooledStack bounds the stack a parser returns to the pool: 64 KiB
// of nodes.
const maxPooledStack = 1024

var stacks = sync.Pool{New: func() any { return new([]Node) }}

func newParser(src string) *parser {
	box := stacks.Get().(*[]Node)
	return &parser{src: src, stack: *box, box: box}
}

// release returns the stack to the pool, emptied of the nodes an error
// left on it.
func (p *parser) release() {
	if cap(p.stack) > maxPooledStack {
		return
	}
	clear(p.stack)
	*p.box = p.stack[:0]
	stacks.Put(p.box)
}

// pop removes the nodes from base up and returns them in a slice of
// their exact number, nil when there are none.
func (p *parser) pop(base int) []Node {
	top := p.stack[base:]
	if len(top) == 0 {
		return nil
	}
	out := make([]Node, len(top))
	copy(out, top)
	clear(top)
	p.stack = p.stack[:base]
	return out
}

// delim marks the ASCII bytes that end a token: NUL, the ASCII spaces
// and ( ) ' " ;.
var delim = [utf8.RuneSelf]bool{0: true, '(': true, ')': true, '\'': true, '"': true, ';': true,
	'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

func isSpaceByte(c byte) bool {
	return c == ' ' || '\t' <= c && c <= '\r'
}

func (p *parser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case isSpaceByte(c):
			p.pos++
		case c == ';': // comments run to end of line
			if i := strings.IndexByte(p.src[p.pos:], '\n'); i >= 0 {
				p.pos += i
			} else {
				p.pos = len(p.src)
			}
		case c < utf8.RuneSelf:
			return
		default:
			r, size := utf8.DecodeRuneInString(p.src[p.pos:])
			if !unicode.IsSpace(r) {
				return
			}
			p.pos += size
		}
	}
}

// token advances over one token and returns it as a substring of src.
func (p *parser) token() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c < utf8.RuneSelf {
			if delim[c] {
				break
			}
			p.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(p.src[p.pos:])
		if unicode.IsSpace(r) {
			break
		}
		p.pos += size
	}
	return p.src[start:p.pos]
}

// text copies a token out of src, each invalid byte as U+FFFD.
func text(tok string) string {
	if utf8.ValidString(tok) {
		return strings.Clone(tok)
	}
	return string([]rune(tok))
}

// Parse parses a single expression from src.
func Parse(src string) (Node, error) {
	p := newParser(src)
	defer p.release()
	n, err := p.expr()
	if err != nil {
		return Node{}, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return Node{}, fmt.Errorf("trailing input at %d: %w", p.pos, ErrParse)
	}
	return n, nil
}

// ParseAll parses a sequence of expressions (a program).
func ParseAll(src string) ([]Node, error) {
	p := newParser(src)
	defer p.release()
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return p.pop(0), nil
		}
		n, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.stack = append(p.stack, n)
	}
}

func (p *parser) expr() (Node, error) {
	p.skipSpace()
	pos := p.pos
	switch p.peek() {
	case 0:
		return Node{}, fmt.Errorf("unexpected end of input: %w", ErrParse)
	case '(':
		p.pos++
		base := len(p.stack)
		for {
			p.skipSpace()
			switch p.peek() {
			case ')':
				p.pos++
				return Node{Kind: NList, Pos: pos, Kids: p.pop(base)}, nil
			case 0:
				return Node{}, fmt.Errorf("unclosed '(' at %d: %w", pos, ErrParse)
			}
			kid, err := p.expr()
			if err != nil {
				return Node{}, err
			}
			p.stack = append(p.stack, kid)
		}
	case ')':
		return Node{}, fmt.Errorf("unexpected ')' at %d: %w", pos, ErrParse)
	case '\'':
		p.pos++
		kid, err := p.expr()
		if err != nil {
			return Node{}, err
		}
		return Node{Kind: NQuote, Kids: []Node{kid}, Pos: pos}, nil
	case '"':
		return p.str()
	case ':':
		p.pos++
		tok := p.token()
		if tok == "" {
			return Node{}, fmt.Errorf("empty keyword at %d: %w", pos, ErrParse)
		}
		return Node{Kind: NKeyword, Text: text(tok), Pos: pos}, nil
	case '#':
		return p.ref()
	default:
		return p.atom()
	}
}

// str reads a string literal. One without escapes or invalid bytes is
// copied out whole; any other is decoded into a builder.
func (p *parser) str() (Node, error) {
	pos := p.pos
	start := pos + 1
	end := start
	for end < len(p.src) && p.src[end] != '"' && p.src[end] != '\\' && p.src[end] != 0 {
		end++
	}
	if end < len(p.src) && p.src[end] == '"' && utf8.ValidString(p.src[start:end]) {
		p.pos = end + 1
		return Node{Kind: NString, Text: strings.Clone(p.src[start:end]), Pos: pos}, nil
	}
	var b strings.Builder
	b.Grow(end - start)
	p.pos = start
	for {
		c := p.peek()
		switch {
		case c == 0:
			return Node{}, fmt.Errorf("unclosed string at %d: %w", pos, ErrParse)
		case c == '"':
			p.pos++
			return Node{Kind: NString, Text: b.String(), Pos: pos}, nil
		case c == '\\':
			p.pos++
			switch esc := p.peek(); esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"', '\\':
				b.WriteByte(esc)
			default:
				r, size := utf8.DecodeRuneInString(p.src[p.pos:])
				if esc < utf8.RuneSelf {
					r, size = rune(esc), 1
				}
				return Node{}, fmt.Errorf("bad escape \\%c at %d: %w", r, p.pos+size, ErrParse)
			}
			p.pos++
		case c < utf8.RuneSelf:
			b.WriteByte(c)
			p.pos++
		default:
			r, size := utf8.DecodeRuneInString(p.src[p.pos:])
			b.WriteRune(r)
			p.pos += size
		}
	}
}

// ref reads an object reference literal, #class:serial.
func (p *parser) ref() (Node, error) {
	pos := p.pos
	p.pos++ // '#'
	tok := p.token()
	cs, ss, ok := strings.Cut(tok, ":")
	if ok && !strings.Contains(ss, ":") {
		c, err1 := strconv.ParseUint(cs, 10, 32)
		s, err2 := strconv.ParseUint(ss, 10, 64)
		if err1 == nil && err2 == nil {
			return Node{Kind: NRef, cls: uint32(c), bits: s, Pos: pos}, nil
		}
	}
	return Node{}, fmt.Errorf("bad reference #%s at %d: %w", text(tok), pos, ErrParse)
}

func (p *parser) atom() (Node, error) {
	pos := p.pos
	tok := p.token()
	if tok == "" {
		return Node{}, fmt.Errorf("empty token at %d: %w", pos, ErrParse)
	}
	switch {
	case lowerIs(tok, "nil"):
		return Node{Kind: NNil, Pos: pos}, nil
	case lowerIs(tok, "true"), lowerIs(tok, "t"):
		return Node{Kind: NBool, bits: 1, Pos: pos}, nil
	case lowerIs(tok, "false"):
		return Node{Kind: NBool, Pos: pos}, nil
	}
	if maybeNumber(tok) {
		if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
			return Node{Kind: NInt, bits: uint64(i), Pos: pos}, nil
		}
		if f, err := strconv.ParseFloat(tok, 64); err == nil {
			return Node{Kind: NReal, bits: math.Float64bits(f), Pos: pos}, nil
		}
	}
	return Node{Kind: NSym, Text: text(tok), Pos: pos}, nil
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
