// Package sexpr implements the ORION-flavored s-expression surface
// language of the paper (§2.3, §3): make-class, make with :parent,
// components-of, compositep, and friends — plus the schema evolution,
// versioning, and authorization messages of §4–§6. It powers the
// orion-shell REPL and lets the paper's examples run nearly verbatim.
package sexpr

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/uid"
)

// NodeKind discriminates parsed nodes.
type NodeKind uint8

// Node kinds.
const (
	NSym     NodeKind = iota // bare symbol: Vehicle, components-of
	NKeyword                 // :domain, :composite
	NString                  // "red"
	NInt                     // 42
	NReal                    // 2.5
	NBool                    // true / false (nil parses as NNil)
	NNil                     // nil
	NList                    // ( ... )
	NQuote                   // 'expr
	NRef                     // #3:7 — an object reference literal
)

// Node is a parsed s-expression node, 64 bytes. Text is the node's one
// string and bits its one 64-bit payload; the accessors read the payload
// by kind. Every string a node holds is its own allocation, never a
// substring of the source, so a parsed tree retains none of the request.
type Node struct {
	Kind NodeKind
	cls  uint32 // NRef: the class part
	Pos  int    // byte offset of the node in the source, for error messages
	Text string // NSym, NKeyword (without the colon), NString
	bits uint64 // NInt, NReal (IEEE 754 bits), NBool (1 = true), NRef (the serial)
	Kids []Node // NList; NQuote has exactly one kid
}

// Int is an NInt's value.
func (n Node) Int() int64 { return int64(n.bits) }

// Real is an NReal's value.
func (n Node) Real() float64 { return math.Float64frombits(n.bits) }

// Bool is an NBool's value.
func (n Node) Bool() bool { return n.bits != 0 }

// Ref is an NRef's object reference.
func (n Node) Ref() uid.UID { return uid.UID{Class: uid.ClassID(n.cls), Serial: n.bits} }

// String renders the node back to source form.
func (n Node) String() string {
	switch n.Kind {
	case NSym:
		return n.Text
	case NKeyword:
		return ":" + n.Text
	case NString:
		return quoteString(n.Text)
	case NInt:
		return strconv.FormatInt(n.Int(), 10)
	case NReal:
		s := strconv.FormatFloat(n.Real(), 'g', -1, 64)
		// Keep the literal float-shaped so it re-parses as a real, not an
		// int (e.g. -0 would otherwise come back as the integer 0).
		if !strings.ContainsAny(s, ".eEnN") { // NaN/Inf contain letters
			s += ".0"
		}
		return s
	case NBool:
		if n.Bool() {
			return "true"
		}
		return "false"
	case NNil:
		return "nil"
	case NQuote:
		return "'" + n.Kids[0].String()
	case NRef:
		return fmt.Sprintf("#%d:%d", n.cls, n.bits)
	case NList:
		parts := make([]string, len(n.Kids))
		for i, k := range n.Kids {
			parts[i] = k.String()
		}
		return "(" + strings.Join(parts, " ") + ")"
	default:
		return "?"
	}
}

// IsSym reports whether n is the given symbol (case-insensitive, as in
// Lisp).
func (n Node) IsSym(s string) bool {
	return n.Kind == NSym && strings.EqualFold(n.Text, s)
}

// quoteString renders a string literal using only the escapes the parser
// accepts (\n, \t, \", \\); all other runes — including control
// characters — are emitted raw, which the parser reads back verbatim, so
// String is a faithful normal form.
func quoteString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
