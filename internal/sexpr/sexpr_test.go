package sexpr

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/value"
)

func newInterp(t *testing.T) *Interp {
	t.Helper()
	d, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return NewInterp(d)
}

func mustEval(t *testing.T, in *Interp, src string) value.Value {
	t.Helper()
	v, err := in.EvalString(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestParserBasics(t *testing.T) {
	n, err := Parse(`(make-class 'Vehicle :superclasses nil :attributes '((Id :domain integer)))`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != NList || !n.Kids[0].IsSym("make-class") {
		t.Fatalf("parsed %s", n)
	}
	// Round trip through String stays parseable.
	if _, err := Parse(n.String()); err != nil {
		t.Fatalf("re-parse: %v", err)
	}
}

func TestParserLiterals(t *testing.T) {
	cases := map[string]NodeKind{
		"42":      NInt,
		"-7":      NInt,
		"2.5":     NReal,
		`"hi"`:    NString,
		"true":    NBool,
		"nil":     NNil,
		"sym-bol": NSym,
		":kw":     NKeyword,
		"'(a b)":  NQuote,
		"#3:7":    NRef,
	}
	for src, want := range cases {
		n, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if n.Kind != want {
			t.Errorf("Parse(%q).Kind = %v, want %v", src, n.Kind, want)
		}
	}
}

func TestParserStringEscapes(t *testing.T) {
	n, err := Parse(`"a\"b\n\t\\"`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Text != "a\"b\n\t\\" {
		t.Fatalf("escaped string = %q", n.Text)
	}
}

func TestParserComments(t *testing.T) {
	nodes, err := ParseAll("; a comment\n(a) ; trailing\n(b)")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("parsed %d nodes", len(nodes))
	}
}

func TestParserErrors(t *testing.T) {
	for _, src := range []string{"(", ")", `"unclosed`, "(a))", "#bad", "'"} {
		if _, err := Parse(src); !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q) = %v, want ErrParse", src, err)
		}
	}
}

// vehicleProgram is the paper's Example 1 class definition, §2.3,
// modulo the make-class spelling of primitive domains.
const vehicleProgram = `
(make-class 'Company :superclasses nil)
(make-class 'AutoBody :superclasses nil)
(make-class 'AutoDrivetrain :superclasses nil)
(make-class 'AutoTires :superclasses nil)
(make-class 'Vehicle :superclasses nil
  :attributes '(
    (Id           :domain integer)
    (Manufacturer :domain Company)
    (Body         :domain AutoBody       :composite true :exclusive true :dependent nil)
    (Drivetrain   :domain AutoDrivetrain :composite true :exclusive true :dependent nil)
    (Tires        :domain (set-of AutoTires) :composite true :exclusive true :dependent nil)
    (Color        :domain String)))
`

func TestVehicleExampleRunsVerbatim(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, vehicleProgram)
	// The schema matches the paper's semantics.
	v := mustEval(t, in, "(compositep Vehicle Body)")
	if b, _ := v.AsBool(); !b {
		t.Fatal("(compositep Vehicle Body) = false")
	}
	v = mustEval(t, in, "(dependent-compositep Vehicle Body)")
	if b, _ := v.AsBool(); b {
		t.Fatal("Body should be independent")
	}
	v = mustEval(t, in, "(exclusive-compositep Vehicle Tires)")
	if b, _ := v.AsBool(); !b {
		t.Fatal("Tires should be exclusive")
	}
	// Build and dismantle a vehicle.
	mustEval(t, in, `(define b (make AutoBody))`)
	mustEval(t, in, `(define d (make AutoDrivetrain))`)
	mustEval(t, in, `(define v1 (make Vehicle :Id 1 :Color "red" :Body b :Drivetrain d))`)
	v = mustEval(t, in, "(child-of b v1)")
	if b, _ := v.AsBool(); !b {
		t.Fatal("(child-of b v1) = false")
	}
	// The exclusive part cannot serve a second vehicle.
	if _, err := in.EvalString(`(make Vehicle :Body b)`); err == nil {
		t.Fatal("body reused across vehicles")
	}
	// Dismantle: parts survive and become reusable.
	mustEval(t, in, "(delete v1)")
	mustEval(t, in, `(define v2 (make Vehicle :Body b))`)
	v = mustEval(t, in, "(components-of v2)")
	if v.Len() != 1 {
		t.Fatalf("components-of v2 = %v", v)
	}
}

// documentProgram is the paper's Example 2, §2.3.
const documentProgram = `
(make-class 'Paragraph :superclasses nil)
(make-class 'Image :superclasses nil)
(make-class 'Section :superclasses nil
  :attribute '(
    (Content :domain (set-of Paragraph) :composite true :exclusive nil :dependent true)))
(make-class 'Document :superclasses nil
  :attribute '(
    (Title       :domain string)
    (Authors     :domain (set-of string))
    (Sections    :domain (set-of Section)   :composite true :exclusive nil :dependent true)
    (Figures     :domain (set-of Image)     :composite true :exclusive nil :dependent nil)
    (Annotations :domain (set-of Paragraph) :composite true :exclusive true :dependent true)))
`

func TestDocumentExampleRunsVerbatim(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, documentProgram)
	mustEval(t, in, `(define p (make Paragraph))`)
	mustEval(t, in, `(define s (make Section)) (attach s Content p)`)
	mustEval(t, in, `(define doc1 (make Document :Title "Book One"))
	                 (attach doc1 Sections s)`)
	// The shared chapter joins a second book via make :parent.
	mustEval(t, in, `(define doc2 (make Document :Title "Book Two"))
	                 (attach doc2 Sections s)`)
	v := mustEval(t, in, "(shared-component-of s doc1)")
	if b, _ := v.AsBool(); !b {
		t.Fatal("section not a shared component")
	}
	v = mustEval(t, in, "(parents-of s)")
	if v.Len() != 2 {
		t.Fatalf("parents-of s = %v", v)
	}
	// Deleting book one keeps the shared chapter; deleting book two
	// cascades to the chapter and its paragraph.
	v = mustEval(t, in, "(delete doc1)")
	if v.Len() != 1 {
		t.Fatalf("delete doc1 removed %v", v)
	}
	v = mustEval(t, in, "(delete doc2)")
	if v.Len() != 3 {
		t.Fatalf("delete doc2 removed %v", v)
	}
}

func TestMakeWithParentKeyword(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, documentProgram)
	mustEval(t, in, `(define doc (make Document :Title "D"))`)
	// §2.3: (make Class :parent ((Parent Attr) ...) ...)
	mustEval(t, in, `(define s (make Section :parent ((doc Sections))))`)
	v := mustEval(t, in, "(child-of s doc)")
	if b, _ := v.AsBool(); !b {
		t.Fatal("make :parent did not attach")
	}
	// Two parents at once (shared attributes only).
	mustEval(t, in, `(define doc2 (make Document))`)
	mustEval(t, in, `(define s2 (make Section :parent ((doc Sections) (doc2 Sections))))`)
	v = mustEval(t, in, "(parents-of s2)")
	if v.Len() != 2 {
		t.Fatalf("parents-of s2 = %v", v)
	}
}

func TestQueryOptionsFull(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, documentProgram)
	mustEval(t, in, `
	  (define p (make Paragraph))
	  (define s (make Section))
	  (attach s Content p)
	  (define img (make Image))
	  (define note (make Paragraph))
	  (define doc (make Document :Title "T"))
	  (attach doc Sections s)
	  (attach doc Figures img)
	  (attach doc Annotations note)`)
	v := mustEval(t, in, "(components-of doc)")
	if v.Len() != 4 {
		t.Fatalf("all components = %v", v)
	}
	v = mustEval(t, in, "(components-of doc :level 1)")
	if v.Len() != 3 {
		t.Fatalf("level-1 components = %v", v)
	}
	v = mustEval(t, in, "(components-of doc :classes (Paragraph))")
	if v.Len() != 2 {
		t.Fatalf("paragraph components = %v", v)
	}
	v = mustEval(t, in, "(components-of doc :exclusive true)")
	if v.Len() != 1 {
		t.Fatalf("exclusive components = %v", v)
	}
	v = mustEval(t, in, "(roots-of p)")
	if v.Len() != 1 {
		t.Fatalf("roots = %v", v)
	}
}

func TestSchemaEvolutionMessages(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, documentProgram)
	mustEval(t, in, `
	  (define doc (make Document))
	  (define note (make Paragraph :parent ((doc Annotations))))`)
	// I2: annotations become shared.
	mustEval(t, in, "(change-attribute Document Annotations I2)")
	v := mustEval(t, in, "(shared-compositep Document Annotations)")
	if b, _ := v.AsBool(); !b {
		t.Fatal("I2 did not take")
	}
	// Drop the attribute: dependent components die.
	v = mustEval(t, in, "(drop-attribute Document Annotations)")
	if v.Len() != 1 {
		t.Fatalf("drop-attribute removed %v", v)
	}
	if _, err := in.EvalString("(get note Text)"); err == nil {
		t.Fatal("reading attribute of deleted object succeeded")
	}
}

func TestVersionMessages(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, `(make-class 'Design :versionable true
	  :attributes '((Name :domain string)))`)
	v := mustEval(t, in, `(define gv (make-versionable Design :Name "d0"))`)
	if v.Len() != 2 {
		t.Fatalf("make-versionable = %v", v)
	}
	// Destructure via element access in the language: bind both by hand.
	g := v.Elems()[0]
	v0 := v.Elems()[1]
	in.env["g"] = g
	in.env["v0"] = v0
	mustEval(t, in, `(define v1 (derive v0))`)
	res := mustEval(t, in, "(resolve g)")
	if !res.Equal(in.env["v1"]) {
		t.Fatalf("(resolve g) = %v, want v1", res)
	}
	mustEval(t, in, "(set-default g v0)")
	res = mustEval(t, in, "(default-version g)")
	if !res.Equal(v0) {
		t.Fatalf("default = %v", res)
	}
	res = mustEval(t, in, "(versions-of g)")
	if res.Len() != 2 {
		t.Fatalf("versions-of = %v", res)
	}
	mustEval(t, in, "(delete-version v1)")
	res = mustEval(t, in, "(versions-of g)")
	if res.Len() != 1 {
		t.Fatalf("after delete-version = %v", res)
	}
}

func TestAuthorizationMessages(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, documentProgram)
	mustEval(t, in, `
	  (define doc (make Document))
	  (define note (make Paragraph :parent ((doc Annotations))))`)
	mustEval(t, in, `(grant "alice" doc sR)`)
	v := mustEval(t, in, `(check "alice" note R)`)
	if b, _ := v.AsBool(); !b {
		t.Fatal("implicit read not granted")
	}
	v = mustEval(t, in, `(check "alice" note W)`)
	if b, _ := v.AsBool(); b {
		t.Fatal("write granted from read")
	}
	v = mustEval(t, in, `(effective "alice" note)`)
	if s, _ := v.AsString(); s != "sR" {
		t.Fatalf("effective = %v", v)
	}
	// Negative grant conflicts: s¬R contradicts the implied sR.
	if _, err := in.EvalString(`(grant "alice" doc s¬R)`); err == nil {
		t.Fatal("conflicting grant accepted")
	}
	// ASCII negative notation also parses.
	mustEval(t, in, `(grant "bob" doc w-R)`)
	v = mustEval(t, in, `(check "bob" note R)`)
	if b, _ := v.AsBool(); b {
		t.Fatal("negative grant did not deny")
	}
}

func TestIntrospectionMessages(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, vehicleProgram)
	v := mustEval(t, in, "(classes)")
	if v.Len() != 5 {
		t.Fatalf("classes = %v", v)
	}
	mustEval(t, in, "(make AutoBody) (make AutoBody)")
	v = mustEval(t, in, "(extent AutoBody)")
	if v.Len() != 2 {
		t.Fatalf("extent = %v", v)
	}
	mustEval(t, in, `(define b (make AutoBody))`)
	v = mustEval(t, in, "(describe b)")
	if s, _ := v.AsString(); !strings.HasPrefix(s, "AutoBody") {
		t.Fatalf("describe = %v", v)
	}
}

func TestEvalErrors(t *testing.T) {
	in := newInterp(t)
	for _, src := range []string{
		"(unknown-message 1)",
		"undefined-symbol",
		"(define)",
		"(make)",
		"(make Ghost)",
		"(get 42 x)",
		`(grant 42 #1:1 sR)`,
	} {
		if _, err := in.EvalString(src); err == nil {
			t.Errorf("eval %q succeeded", src)
		}
	}
}

func TestSetMessage(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, vehicleProgram)
	mustEval(t, in, `(define v (make Vehicle :Id 1))`)
	mustEval(t, in, `(set v Color "blue")`)
	got := mustEval(t, in, "(get v Color)")
	if s, _ := got.AsString(); s != "blue" {
		t.Fatalf("Color = %v", got)
	}
	// Detach via message.
	mustEval(t, in, `(define b (make AutoBody)) (attach v Body b)`)
	mustEval(t, in, `(detach v Body b)`)
	got = mustEval(t, in, "(get v Body)")
	if !got.IsNil() {
		t.Fatalf("Body after detach = %v", got)
	}
}

func TestGrantAuthorityMessages(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, documentProgram)
	mustEval(t, in, `
	  (define doc (make Document))
	  (define note (make Paragraph :parent ((doc Annotations))))
	  (set-owner doc "owner")`)
	v := mustEval(t, in, `(owner-of doc)`)
	if s, _ := v.AsString(); s != "owner" {
		t.Fatalf("owner-of = %v", v)
	}
	// Only the owner (or delegates) may grant through grant-as.
	if _, err := in.EvalString(`(grant-as "stranger" "alice" doc sR)`); err == nil {
		t.Fatal("stranger grant accepted")
	}
	mustEval(t, in, `(grant-as "owner" "alice" doc sR)`)
	v = mustEval(t, in, `(check "alice" note R)`)
	if b, _ := v.AsBool(); !b {
		t.Fatal("owner grant not effective")
	}
	// Delegation.
	mustEval(t, in, `(delegate "owner" "deputy" doc)`)
	mustEval(t, in, `(grant-as "deputy" "bob" doc wR)`)
	v = mustEval(t, in, `(check "bob" note R)`)
	if b, _ := v.AsBool(); !b {
		t.Fatal("deputy grant not effective")
	}
}

func TestIntegrityMessage(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, documentProgram)
	mustEval(t, in, `
	  (define doc (make Document))
	  (define s (make Section :parent ((doc Sections))))`)
	v := mustEval(t, in, "(integrity)")
	if v.Len() != 0 {
		t.Fatalf("integrity violations: %v", v)
	}
}

func TestSelectMessage(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, vehicleProgram)
	mustEval(t, in, `
	  (make-class 'Scale :superclasses nil)   ; unused, exercises catalog growth
	  (define b1 (make AutoBody))
	  (define b2 (make AutoBody))
	  (define v1 (make Vehicle :Id 1 :Color "red"  :Body b1))
	  (define v2 (make Vehicle :Id 2 :Color "blue" :Body b2))
	  (define v3 (make Vehicle :Id 3 :Color "red"))`)
	v := mustEval(t, in, `(select Vehicle)`)
	if v.Len() != 3 {
		t.Fatalf("select all = %v", v)
	}
	v = mustEval(t, in, `(select Vehicle :where (= Color "red"))`)
	if v.Len() != 2 {
		t.Fatalf("red = %v", v)
	}
	v = mustEval(t, in, `(select Vehicle :where (and (= Color "red") (exists Body)))`)
	if v.Len() != 1 || !v.Elems()[0].Equal(in.env["v1"]) {
		t.Fatalf("red+body = %v", v)
	}
	v = mustEval(t, in, `(select Vehicle :where (or (= Id 2) (= Id 3)))`)
	if v.Len() != 2 {
		t.Fatalf("2or3 = %v", v)
	}
	v = mustEval(t, in, `(select Vehicle :where (not (exists Body)))`)
	if v.Len() != 1 {
		t.Fatalf("bodyless = %v", v)
	}
	// Path predicate through a composite reference.
	mustEval(t, in, `(make-class 'HeavyBody :superclasses (AutoBody))`)
	v = mustEval(t, in, `(select Vehicle :where (< Id 3))`)
	if v.Len() != 2 {
		t.Fatalf("id<3 = %v", v)
	}
	// Errors.
	if _, err := in.EvalString(`(select Ghost)`); err == nil {
		t.Fatal("select over ghost class")
	}
	if _, err := in.EvalString(`(select Vehicle :where (frobnicate Id 1))`); err == nil {
		t.Fatal("unknown predicate accepted")
	}
}

func TestSelectPathMessage(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, `
	  (make-class 'B :attributes '((W :domain integer)))
	  (make-class 'V :attributes '((Body :domain B :composite true :dependent nil)))
	  (define b1 (make B :W 120))
	  (define b2 (make B :W 80))
	  (define v1 (make V :Body b1))
	  (define v2 (make V :Body b2))`)
	v := mustEval(t, in, `(select V :where (> (path Body W) 100))`)
	if v.Len() != 1 || !v.Elems()[0].Equal(in.env["v1"]) {
		t.Fatalf("heavy = %v", v)
	}
	v = mustEval(t, in, `(select V :where (all Body (>= W 80)))`)
	if v.Len() != 2 {
		t.Fatalf("all>=80 = %v", v)
	}
	v = mustEval(t, in, `(select B :where (component-of v1))`)
	if v.Len() != 1 {
		t.Fatalf("components = %v", v)
	}
}

func TestIndexedSelectMessage(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, `
	  (make-class 'Part :attributes '((Material :domain string)))
	  (define a (make Part :Material "steel"))
	  (define b (make Part :Material "alu"))
	  (create-index Part Material)
	  (define c (make Part :Material "steel"))`)
	v := mustEval(t, in, `(select Part :where (= Material "steel"))`)
	if v.Len() != 2 {
		t.Fatalf("indexed select = %v", v)
	}
	mustEval(t, in, `(drop-index Part Material)`)
	v = mustEval(t, in, `(select Part :where (= Material "steel"))`)
	if v.Len() != 2 {
		t.Fatalf("scan select = %v", v)
	}
	if _, err := in.EvalString(`(drop-index Part Material)`); err == nil {
		t.Fatal("double drop-index accepted")
	}
}

// TestMessageUsageErrors sweeps wrong-arity and wrong-type invocations of
// every message; each must error rather than panic or silently succeed.
func TestMessageUsageErrors(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, vehicleProgram)
	mustEval(t, in, `(define v (make Vehicle :Id 1))`)
	bad := []string{
		`(make-class)`,
		`(make-class 'X :attributes 5)`,
		`(make-class 'X :attributes '((NoDomain)))`,
		`(make-class 'X :attributes '((A :domain (set-of))))`,
		`(make)`,
		`(make Vehicle :parent 5)`,
		`(make Vehicle :parent ((v)))`,
		`(get v)`,
		`(get v Ghost Extra)`,
		`(set v)`,
		`(attach v Body)`,
		`(detach v Body)`,
		`(delete)`,
		`(describe)`,
		`(components-of)`,
		`(parents-of)`,
		`(ancestors-of)`,
		`(roots-of)`,
		`(component-of v)`,
		`(child-of v)`,
		`(compositep)`,
		`(compositep Vehicle Body Extra)`,
		`(drop-attribute Vehicle)`,
		`(add-superclass Vehicle)`,
		`(remove-superclass Vehicle)`,
		`(drop-class)`,
		`(change-attribute Vehicle Body)`,
		`(change-attribute Vehicle Body I9)`,
		`(make-composite Vehicle)`,
		`(make-exclusive Vehicle)`,
		`(make-versionable)`,
		`(derive)`,
		`(set-default v)`,
		`(default-version)`,
		`(resolve)`,
		`(delete-version)`,
		`(versions-of)`,
		`(grant "a" v)`,
		`(grant "a" v zR)`,
		`(grant "a" v qq)`,
		`(grant-class "a" Vehicle)`,
		`(revoke "a")`,
		`(revoke-class "a")`,
		`(check "a" v)`,
		`(check "a" v Q)`,
		`(effective "a")`,
		`(grant-as "a" "b" v)`,
		`(set-owner v)`,
		`(owner-of)`,
		`(delegate "a" "b")`,
		`(extent)`,
		`(select)`,
		`(select Vehicle :where 5)`,
		`(select Vehicle :where (=))`,
		`(select Vehicle :where (exists))`,
		`(select Vehicle :where (not))`,
		`(select Vehicle :where (any Body))`,
		`(select Vehicle :where (component-of))`,
		`(create-index Vehicle)`,
		`(drop-index Vehicle)`,
		`(define x)`,
		`(42 1 2)`,
	}
	for _, src := range bad {
		if _, err := in.EvalString(src); err == nil {
			t.Errorf("%s succeeded", src)
		}
	}
}

func TestCopyAndRenameMessages(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, vehicleProgram)
	mustEval(t, in, `
	  (define b (make AutoBody))
	  (define v (make Vehicle :Id 7 :Body b))
	  (define v2 (copy v))`)
	got := mustEval(t, in, `(get v2 Id)`)
	if n, _ := got.AsInt(); n != 7 {
		t.Fatalf("copied Id = %v", got)
	}
	// The copy has its own body.
	origBody := mustEval(t, in, `(get v Body)`)
	copyBody := mustEval(t, in, `(get v2 Body)`)
	if origBody.Equal(copyBody) {
		t.Fatal("copy shares the exclusive body")
	}
	mustEval(t, in, `(rename-attribute Vehicle Color Paint)`)
	mustEval(t, in, `(set v Paint "green")`)
	if _, err := in.EvalString(`(set v Color "red")`); err == nil {
		t.Fatal("old attribute name still accepted")
	}
}

func TestTourScriptRuns(t *testing.T) {
	src, err := os.ReadFile("../../examples/scripts/tour.orion")
	if err != nil {
		t.Fatal(err)
	}
	in := newInterp(t)
	v, err := in.EvalString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	// The script ends with (integrity): must report no violations.
	if v.Len() != 0 {
		t.Fatalf("tour ended with violations: %v", v)
	}
}
