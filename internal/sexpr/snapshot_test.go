package sexpr

import (
	"strings"
	"testing"

	"repro/internal/value"
)

// TestSnapshotCommand drives the shell-level snapshot session: queries
// under (snapshot begin) keep answering from the pinned commit boundary
// while live mutations proceed, and (snapshot release) returns the
// interpreter to live reads.
func TestSnapshotCommand(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, `(make-class 'Part :superclasses nil :attributes '(
		(Name :domain String)
		(Subparts :domain (set-of Part) :composite true :exclusive nil :dependent nil)))`)
	mustEval(t, in, `(define root (make Part :Name "root"))`)
	mustEval(t, in, `(define kid (make Part :Name "kid"))`)
	mustEval(t, in, `(attach root Subparts kid)`)

	if v := mustEval(t, in, `(snapshot status)`); !v.IsNil() {
		t.Fatalf("status before begin = %s, want nil", v)
	}
	seq := mustEval(t, in, `(snapshot begin)`)
	if _, ok := seq.AsInt(); !ok {
		t.Fatalf("(snapshot begin) = %s, want a sequence number", seq)
	}
	if st := mustEval(t, in, `(snapshot status)`); !st.Equal(seq) {
		t.Fatalf("status = %s, want %s", st, seq)
	}

	// Mutate the live database: rename kid, attach a second component,
	// detach the first.
	mustEval(t, in, `(set kid Name "renamed")`)
	mustEval(t, in, `(define kid2 (make Part :Name "kid2"))`)
	mustEval(t, in, `(attach root Subparts kid2)`)
	mustEval(t, in, `(detach root Subparts kid)`)

	// Snapshot reads stay at the begin boundary.
	if v := mustEval(t, in, `(get kid Name)`); !v.Equal(value.Str("kid")) {
		t.Fatalf("snapshot (get kid Name) = %s, want \"kid\"", v)
	}
	comps := mustEval(t, in, `(components-of root)`)
	if comps.Len() != 1 {
		t.Fatalf("snapshot (components-of root) = %s, want one component", comps)
	}
	// Every §3.2 predicate answers from the snapshot too: kid is still a
	// shared child of root there.
	for expr, want := range map[string]bool{
		`(component-of kid root)`:           true,
		`(child-of kid root)`:               true,
		`(shared-component-of kid root)`:    true,
		`(exclusive-component-of kid root)`: false,
	} {
		if v := mustEval(t, in, expr); !v.Equal(value.Bool(want)) {
			t.Fatalf("snapshot %s = %s, want %v", expr, v, want)
		}
	}

	// Release: live reads resume.
	if v := mustEval(t, in, `(snapshot release)`); !v.Equal(value.Bool(true)) {
		t.Fatalf("(snapshot release) = %s, want true", v)
	}
	if v := mustEval(t, in, `(get kid Name)`); !v.Equal(value.Str("renamed")) {
		t.Fatalf("live (get kid Name) = %s, want \"renamed\"", v)
	}
	comps = mustEval(t, in, `(components-of root)`)
	kid2, _ := mustEval(t, in, `kid2`).AsRef()
	if refs := comps.Refs(nil); len(refs) != 1 || refs[0] != kid2 {
		t.Fatalf("live (components-of root) = %s, want (kid2)", comps)
	}
	if v := mustEval(t, in, `(child-of kid root)`); !v.Equal(value.Bool(false)) {
		t.Fatalf("live (child-of kid root) = %s, want nil", v)
	}
	if v := mustEval(t, in, `(snapshot release)`); !v.Equal(value.Bool(false)) {
		t.Fatalf("double release = %s, want false", v)
	}
}

func TestSnapshotCommandUsage(t *testing.T) {
	in := newInterp(t)
	if _, err := in.EvalString(`(snapshot)`); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("(snapshot) error = %v, want usage error", err)
	}
	if _, err := in.EvalString(`(snapshot frobnicate)`); err == nil || !strings.Contains(err.Error(), "unknown snapshot verb") {
		t.Fatalf("(snapshot frobnicate) error = %v, want verb error", err)
	}
}
