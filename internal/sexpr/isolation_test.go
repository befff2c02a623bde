package sexpr

import (
	"slices"
	"testing"
	"time"

	"repro/internal/uid"
)

// isolationSchema: one section holding one paragraph, "old".
const isolationSchema = `
(make-class 'Paragraph :attributes '((Text :domain string)))
(make-class 'Section :attributes '((Content :domain (set-of Paragraph) :composite true :exclusive true :dependent true)))
(define s (make Section))
(define p (make Paragraph :Text "old" :parent ((s Content))))
`

// sessionPair returns a session with the isolation schema loaded and a
// second session on the same database sharing its bindings.
func sessionPair(t *testing.T) (in, out *Interp) {
	t.Helper()
	in = newInterp(t)
	mustEval(t, in, isolationSchema)
	out = NewInterp(in.DB)
	out.env = in.env
	return in, out
}

func textOf(t *testing.T, in *Interp, obj string) string {
	t.Helper()
	s, _ := mustEval(t, in, "(get "+obj+" Text)").AsString()
	return s
}

// TestOpenTransactionInvisibleOutside: while one session holds a write
// open, reads from outside it — DB.Get, get, components-of — return the
// committed state; the writer's own reads see its writes; the commit
// publishes them all at once.
func TestOpenTransactionInvisibleOutside(t *testing.T) {
	in, out := sessionPair(t)
	p, _ := in.env["p"].AsRef()
	mustEval(t, in, `(begin) (set p Text "new") (define q (make Paragraph :Text "q" :parent ((s Content))))`)

	o, err := in.DB.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := o.Get("Text").AsString(); s != "old" {
		t.Fatalf("DB.Get during the open transaction: Text = %q, want the committed \"old\"", s)
	}
	if s := textOf(t, out, "p"); s != "old" {
		t.Fatalf("(get p Text) from outside = %q, want \"old\"", s)
	}
	if n := mustEval(t, out, "(components-of s)").Len(); n != 1 {
		t.Fatalf("components-of from outside lists %d objects, want the 1 committed", n)
	}
	if s := textOf(t, in, "p"); s != "new" {
		t.Fatalf("(get p Text) inside the transaction = %q, want \"new\"", s)
	}

	mustEval(t, in, "(commit)")
	if s := textOf(t, out, "p"); s != "new" {
		t.Fatalf("(get p Text) after commit = %q, want \"new\"", s)
	}
	if n := mustEval(t, out, "(components-of s)").Len(); n != 2 {
		t.Fatalf("components-of after commit lists %d objects, want 2", n)
	}
}

// TestIndexedSelectSeesCommittedValuesDuringOpenTransaction: index
// postings hold committed values only, so an indexed select answers from
// committed state while a write of the indexed attribute is open, inside
// the writer's transaction too, and after its abort.
func TestIndexedSelectSeesCommittedValuesDuringOpenTransaction(t *testing.T) {
	in, out := sessionPair(t)
	mustEval(t, in, "(create-index Paragraph Text)")
	p := in.env["p"]
	mustEval(t, in, `(begin) (set p Text "new")`)
	for _, s := range []*Interp{out, in} {
		if v := mustEval(t, s, `(select Paragraph :where (= Text "old"))`); v.Len() != 1 || !v.Elems()[0].Equal(p) {
			t.Fatalf("select Text = old during the open transaction = %v, want (p)", v)
		}
		if v := mustEval(t, s, `(select Paragraph :where (= Text "new"))`); v.Len() != 0 {
			t.Fatalf("select Text = new during the open transaction = %v, want ()", v)
		}
	}
	mustEval(t, in, "(abort)")
	if v := mustEval(t, out, `(select Paragraph :where (= Text "old"))`); v.Len() != 1 {
		t.Fatalf("select Text = old after abort = %v, want (p)", v)
	}
}

// TestComponentsOfSeesOwnCreationInTransaction: inside (begin) the §3
// queries read the transaction's view, so a component made earlier in
// the same transaction is listed.
func TestComponentsOfSeesOwnCreationInTransaction(t *testing.T) {
	in, _ := sessionPair(t)
	mustEval(t, in, `(begin) (define q (make Paragraph :Text "q" :parent ((s Content))))`)
	q, _ := in.env["q"].AsRef()
	var got []uid.UID
	for _, e := range mustEval(t, in, "(components-of s)").Elems() {
		r, _ := e.AsRef()
		got = append(got, r)
	}
	if len(got) != 2 || got[1] != q {
		t.Fatalf("components-of inside the transaction = %v, want p then q (%v)", got, q)
	}
	if ok := mustEval(t, in, "(component-of q s)"); !ok.Equal(mustEval(t, in, "true")) {
		t.Fatalf("(component-of q s) inside the transaction = %v", ok)
	}
	mustEval(t, in, "(commit)")
}

// TestOpenVersionStatementsInvisibleOutside: the version bookkeeping an
// open transaction changes follows its objects. Outside it, versions-of
// and default-version answer from the committed versions; inside, from
// the transaction's own; its commit publishes both together.
func TestOpenVersionStatementsInvisibleOutside(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, `(make-class 'Design :versionable true :attributes '((Name :domain string)))`)
	gv := mustEval(t, in, `(make-versionable Design :Name "d0")`).Elems()
	in.env["g"], in.env["v0"] = gv[0], gv[1]
	mustEval(t, in, `(define v1 (derive v0))`)
	out := NewInterp(in.DB)
	out.env = in.env
	versions := func(s *Interp) []uid.UID {
		t.Helper()
		var ids []uid.UID
		for _, e := range mustEval(t, s, "(versions-of g)").Elems() {
			id, _ := e.AsRef()
			ids = append(ids, id)
		}
		return ids
	}
	ref := func(name string) uid.UID {
		id, _ := in.env[name].AsRef()
		return id
	}

	mustEval(t, in, "(begin) (delete-version v1) (define v2 (derive v0))")
	if got, want := versions(out), []uid.UID{ref("v0"), ref("v1")}; !slices.Equal(got, want) {
		t.Fatalf("versions-of from outside the open transaction = %v, want the committed %v", got, want)
	}
	if d := mustEval(t, out, "(default-version g)"); !d.Equal(in.env["v1"]) {
		t.Fatalf("default-version from outside = %v, want the committed v1", d)
	}
	if got, want := versions(in), []uid.UID{ref("v0"), ref("v2")}; !slices.Equal(got, want) {
		t.Fatalf("versions-of inside the transaction = %v, want %v", got, want)
	}
	if d := mustEval(t, in, "(default-version g)"); !d.Equal(in.env["v2"]) {
		t.Fatalf("default-version inside = %v, want v2", d)
	}

	mustEval(t, in, "(commit)")
	if got, want := versions(out), []uid.UID{ref("v0"), ref("v2")}; !slices.Equal(got, want) {
		t.Fatalf("versions-of after the commit = %v, want %v", got, want)
	}
}

// TestConcurrentVersionDeletesLeaveNoEmptyGeneric: two transactions
// delete the two versions of one generic. The second waits for the first
// to end, then sees it was left the last version and deletes the generic
// with it (CV-4X), instead of each seeing the other's version and
// leaving the generic empty.
func TestConcurrentVersionDeletesLeaveNoEmptyGeneric(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, `(make-class 'Design :versionable true :attributes '((Name :domain string)))`)
	gv := mustEval(t, in, `(make-versionable Design :Name "d0")`).Elems()
	in.env["g"], in.env["v0"] = gv[0], gv[1]
	mustEval(t, in, `(define v1 (derive v0))`)
	out := NewInterp(in.DB)
	out.env = in.env

	mustEval(t, in, "(begin) (delete-version v0)")
	done := make(chan error, 1)
	go func() {
		_, err := out.EvalString("(delete-version v1)")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("second delete-version ran while the first was open (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	mustEval(t, in, "(commit)")
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second delete-version stuck after the first committed")
	}
	g, _ := in.env["g"].AsRef()
	if in.DB.Versions().IsGeneric(g) || in.DB.Engine().Exists(g) {
		t.Fatal("the generic outlived its last version")
	}
}
