package sexpr

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// atomBefore is the atom classification as it was written before the
// symbol fast path: a lowered keyword match, then ParseInt, then
// ParseFloat, else a symbol.
func atomBefore(tok string) Node {
	switch strings.ToLower(tok) {
	case "nil":
		return Node{Kind: NNil}
	case "true", "t":
		return Node{Kind: NBool, bits: 1}
	case "false":
		return Node{Kind: NBool}
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return Node{Kind: NInt, bits: uint64(i)}
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return Node{Kind: NReal, bits: math.Float64bits(f)}
	}
	return Node{Kind: NSym, Text: tok}
}

func parseTok(t *testing.T, tok string) Node {
	t.Helper()
	n, err := newParser(tok).atom()
	if err != nil {
		t.Fatalf("atom(%q): %v", tok, err)
	}
	return n
}

func sameAtom(a, b Node) bool {
	if a.Kind != b.Kind || a.Text != b.Text {
		return false
	}
	return a.bits == b.bits || a.Kind == NReal && math.IsNaN(a.Real()) && math.IsNaN(b.Real())
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
	p := newParser(src)
	allocs := testing.AllocsPerRun(100, func() {
		p.pos = 0
		if n, err := p.atom(); err != nil || n.Kind != NSym {
			t.Fatalf("%q: %+v, %v", src, n, err)
		}
	})
	// The token string itself is the only allocation.
	if allocs > 1 {
		t.Fatalf("atom(%q) allocates %.0f times, want 1", src, allocs)
	}
}

func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 64 {
		t.Fatalf("Node is %d bytes, want at most 64", size)
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// bulkFrame is a bulk_lifecycle request: one transaction building a
// 137-object composite (a Document, 8 Sections, 16 Paragraphs each with
// 64 bytes of text), then one deleting an older composite.
func bulkFrame() string {
	var b strings.Builder
	b.WriteString(`(begin) (define d (make Document :Title "bulk-000042"))`)
	for s := 0; s < 8; s++ {
		fmt.Fprintf(&b, ` (define s%d (make Section :Heading "h%d" :parent ((d Sections))))`, s, s)
		for p := 0; p < 16; p++ {
			fmt.Fprintf(&b, ` (make Paragraph :Text "%064x" :parent ((s%d Content)))`, s*16+p, s)
		}
	}
	b.WriteString(` (commit) (begin) (delete #7:1234) (commit) (refs d)`)
	return b.String()
}

// shape counts the lists and quotes of a tree and its nodes holding a
// string.
func shape(nodes []Node) (lists, texts int) {
	for _, n := range nodes {
		if len(n.Kids) > 0 {
			lists++
		}
		if n.Text != "" {
			texts++
		}
		l, s := shape(n.Kids)
		lists, texts = lists+l, texts+s
	}
	return lists, texts
}

// TestParseAllocations: parsing a bulk_lifecycle frame allocates no more
// than one slice per list, the program's own included, and one string
// per node holding one.
func TestParseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over a sync.Pool are not kept under -race")
	}
	src := bulkFrame()
	nodes, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	lists, texts := shape(nodes)
	lists++ // the program
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ParseAll(src); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(lists + texts); allocs > limit {
		t.Fatalf("ParseAll of a %d-byte frame: %.0f allocations, want at most %d lists + %d strings",
			len(src), allocs, lists, texts)
	}
}

// TestParsedStringsOwnTheirBytes: no string in a parsed tree points into
// the source, so a tree kept after the request retains none of it.
func TestParsedStringsOwnTheirBytes(t *testing.T) {
	src := bulkFrame() + " (a :kw sym \"esc\\\"aped\" \"b\xffad\" sym\xfe 日本 \"日本\")"
	nodes, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	var walk func([]Node)
	walk = func(nodes []Node) {
		for _, n := range nodes {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(n.Text))); n.Text != "" && lo <= p && p < hi {
				t.Fatalf("%s at %d aliases the source", n, n.Pos)
			}
			walk(n.Kids)
		}
	}
	walk(nodes)
}

// BenchmarkParseBulkFrame parses one bulk_lifecycle request.
func BenchmarkParseBulkFrame(b *testing.B) {
	src := bulkFrame()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseAll(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSplitKeywords: positional arguments and keyword pairs are read in
// place; a keyword matches in any case, and a keyword given twice
// answers its last value.
func TestSplitKeywords(t *testing.T) {
	n, err := Parse(`(f a b :Level 1 :shared true :LEVEL 2)`)
	if err != nil {
		t.Fatal(err)
	}
	args := n.Kids[1:]
	pos, kw, err := splitKeywords(args)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 2 || &pos[0] != &args[0] || len(kw) != 6 || &kw[0] != &args[2] {
		t.Fatalf("positional %v, keywords %v: not subslices of the arguments", pos, kw)
	}
	if v, ok := kw.get("level"); !ok || v.Int() != 2 {
		t.Fatalf(":level = %v, %v; want the last value, 2", v, ok)
	}
	if _, ok := kw.get("classes"); ok {
		t.Fatal("found a keyword that is not there")
	}
	for _, src := range []string{`(f a :level)`, `(f :level 1 b)`} {
		n, _ := Parse(src)
		if _, _, err := splitKeywords(n.Kids[1:]); !errors.Is(err, ErrEval) {
			t.Errorf("%s: %v, want ErrEval", src, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { splitKeywords(args) }); allocs != 0 {
		t.Fatalf("splitKeywords allocates %.0f times", allocs)
	}
}
