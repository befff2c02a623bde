package sexpr

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// atomBefore is parseAtom's classification as it was written before the
// symbol fast path: a lowered keyword match, then ParseInt, then
// ParseFloat, else a symbol.
func atomBefore(tok string) Node {
	switch strings.ToLower(tok) {
	case "nil":
		return Node{Kind: NNil}
	case "true", "t":
		return Node{Kind: NBool, Bool: true}
	case "false":
		return Node{Kind: NBool}
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return Node{Kind: NInt, Int: i}
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return Node{Kind: NReal, Real: f}
	}
	return Node{Kind: NSym, Sym: tok}
}

func parseTok(t *testing.T, tok string) Node {
	t.Helper()
	n, err := parseAtom(&lexer{src: []rune(tok)})
	if err != nil {
		t.Fatalf("parseAtom(%q): %v", tok, err)
	}
	return n
}

func sameAtom(a, b Node) bool {
	if a.Kind != b.Kind || a.Sym != b.Sym || a.Int != b.Int || a.Bool != b.Bool {
		return false
	}
	return a.Real == b.Real || math.IsNaN(a.Real) && math.IsNaN(b.Real)
}

func TestParseAtomClassification(t *testing.T) {
	for _, c := range []struct {
		tok  string
		kind NodeKind
	}{
		{"inf", NReal}, {"-Inf", NReal}, {"Infinity", NReal}, {"NaN", NReal}, {"nan", NReal},
		{"+", NSym}, {"-", NSym}, {"+1", NInt}, {"-0", NInt}, {"1e3", NReal},
		{".5", NReal}, {"0x1p4", NReal}, {"0x10", NSym}, {"1_000", NReal}, {"9223372036854775808", NReal},
		{"T", NBool}, {"t", NBool}, {"NIL", NNil}, {"False", NBool},
		{"components-of", NSym}, {"Document", NSym}, {"infinite", NSym}, {"nano", NSym},
		{"İ", NSym}, {"NİL", NNil}, {"falſe", NSym},
	} {
		got := parseTok(t, c.tok)
		if got.Kind != c.kind {
			t.Errorf("%q: kind %v, want %v", c.tok, got.Kind, c.kind)
		}
		if want := atomBefore(c.tok); !sameAtom(got, want) {
			t.Errorf("%q: %+v, classified before as %+v", c.tok, got, want)
		}
	}
}

// TestParseAtomMatchesStrconvExhaustive compares the classification with
// atomBefore on every token of up to four characters over an alphabet of
// the characters number syntax gives meaning to.
func TestParseAtomMatchesStrconvExhaustive(t *testing.T) {
	alphabet := []rune("0159+-._eExXpPiInNfFaAtTlL")
	var tok []rune
	var walk func(depth int)
	walk = func(depth int) {
		if len(tok) > 0 {
			s := string(tok)
			if got, want := parseTok(t, s), atomBefore(s); !sameAtom(got, want) {
				t.Fatalf("%q: %+v, classified before as %+v", s, got, want)
			}
		}
		if depth == 0 {
			return
		}
		for _, r := range alphabet {
			tok = append(tok, r)
			walk(depth - 1)
			tok = tok[:len(tok)-1]
		}
	}
	walk(4)
	for _, s := range []string{"infinity", "+infinity", "-INFINITY", "+nan", "-NaN", "1e+300", "1e400", "0x1.8p-2", "1__0", "0b101", "1.2.3"} {
		if got, want := parseTok(t, s), atomBefore(s); !sameAtom(got, want) {
			t.Fatalf("%q: %+v, classified before as %+v", s, got, want)
		}
	}
}

func TestParseSymbolAllocations(t *testing.T) {
	const src = "components-of"
	l := &lexer{src: []rune(src)}
	allocs := testing.AllocsPerRun(100, func() {
		l.pos = 0
		if n, err := parseAtom(l); err != nil || n.Kind != NSym {
			t.Fatalf("%q: %+v, %v", src, n, err)
		}
	})
	// The token string itself is the only allocation.
	if allocs > 1 {
		t.Fatalf("parseAtom(%q) allocates %.0f times, want 1", src, allocs)
	}
}
