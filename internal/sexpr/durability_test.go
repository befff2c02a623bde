package sexpr

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/db"
	"repro/internal/uid"
)

// openDurable opens a SyncWAL database in dir with an interpreter on it.
func openDurable(t *testing.T, dir string) *Interp {
	t.Helper()
	d, err := db.Open(db.Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	return NewInterp(d)
}

// TestSchemaStatementsSurviveCrash: each schema statement of the wire is
// committed and checkpointed before it returns, so a crash right after it
// recovers the catalog it left and objects that agree with it.
func TestSchemaStatementsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	in := openDurable(t, dir)
	mustEval(t, in, `(make-class 'Base :attributes '((Code :domain string)))`)
	mustEval(t, in, `(make-class 'Bolt :attributes '((Size :domain integer)))`)
	mustEval(t, in, `(make-class 'Rig :attributes '((Name :domain string) (Bolts :domain (set-of Bolt))))`)
	mustEval(t, in, `(define b (make Bolt :Size 8))`)
	mustEval(t, in, `(define r (make Rig :Name "r" :Bolts (refs b)))`)
	mustEval(t, in, `(make-composite Rig Bolts :exclusive false :dependent false)`)
	mustEval(t, in, `(rename-attribute Rig Name Label)`)
	mustEval(t, in, `(add-superclass Rig Base)`)
	var want bytes.Buffer
	if err := in.DB.Catalog().Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := in.DB.Abandon(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir)
	defer re.DB.Close()
	var got bytes.Buffer
	if err := re.DB.Catalog().Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("recovered catalog\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
	if v := re.DB.Engine().Integrity(); len(v) != 0 {
		t.Fatalf("integrity violations after recovery: %v", v)
	}
	re.env = in.env
	if s, _ := mustEval(t, re, "(get r Label)").AsString(); s != "r" {
		t.Fatalf("(get r Label) = %q after recovery", s)
	}
}

// TestVersionAttachKeepsGenericReverseRef: make-versionable with a
// composite reference to a version instance attaches it version-aware,
// which records the §5.3 reverse composite generic reference in the
// target's generic instance. That write is logged with the statement, so
// it survives a clean close and a crash alike.
func TestVersionAttachKeepsGenericReverseRef(t *testing.T) {
	for _, crash := range []bool{false, true} {
		dir := t.TempDir()
		in := openDurable(t, dir)
		mustEval(t, in, `(make-class 'Gear :versionable true :attributes '((Teeth :domain integer)))`)
		mustEval(t, in, `(make-class 'Box :versionable true
		  :attributes '((Drive :domain Gear :composite true :dependent false)))`)
		gear := mustEval(t, in, `(make-versionable Gear :Teeth 12)`).Elems()
		gGear, _ := gear[0].AsRef()
		in.env["g0"] = gear[1]
		box := mustEval(t, in, `(make-versionable Box :Drive g0)`).Elems()
		gBox, _ := box[0].AsRef()
		reverse := func(in *Interp) []uid.UID {
			o, err := in.DB.Get(gGear)
			if err != nil {
				t.Fatal(err)
			}
			var out []uid.UID
			for _, r := range o.Reverse() {
				out = append(out, r.Parent)
			}
			return out
		}
		if got := reverse(in); len(got) != 1 || got[0] != gBox {
			t.Fatalf("generic reverse refs = %v, want [%v]", got, gBox)
		}
		var err error
		if crash {
			err = in.DB.Abandon()
		} else {
			err = in.DB.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		re := openDurable(t, dir)
		if got := reverse(re); len(got) != 1 || got[0] != gBox {
			t.Errorf("crash=%v: generic reverse refs after reopen = %v, want [%v]", crash, got, gBox)
		}
		re.DB.Close()
	}
}

// TestSchemaStatementRefusedInTxn: a schema statement runs as its own
// transaction, so inside (begin) it is an eval error and changes nothing.
func TestSchemaStatementRefusedInTxn(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, sessionSchema)
	mustEval(t, in, "(begin)")
	_, err := in.EvalString("(rename-attribute Widget Tag Label)")
	if !errors.Is(err, ErrSchemaInTxn) || ErrorCode(err) != CodeEval {
		t.Fatalf("rename-attribute in (begin) = %v (code %q), want ErrSchemaInTxn", err, ErrorCode(err))
	}
	mustEval(t, in, "(commit)")
	if _, err := in.DB.Catalog().Attribute("Widget", "Tag"); err != nil {
		t.Fatalf("refused statement changed the catalog: %v", err)
	}
}
