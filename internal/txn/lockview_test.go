package txn

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

// TestDeleteLocksWhatItsOwnAttachReaches: a transaction attaches a
// committed root c under P and then deletes P. The cascade reaches c's
// dependent-shared component d and, as d loses its last dependent parent,
// edits d's independent-shared parent Q. Delete admission must resolve
// P's components through the transaction's own view, where c is already
// attached, and so lock Q's unit: a second writer of Q waits until the
// first transaction ends, and neither update is lost. (The IXOS lock
// both units take on D's class serializes the two writers as well; the
// instance lock on Q is what LockForDelete promises on its own.)
func TestDeleteLocksWhatItsOwnAttachReaches(t *testing.T) {
	cat := schema.NewCatalog()
	for _, def := range []schema.ClassDef{
		{Name: "D", Attributes: []schema.AttrSpec{schema.NewAttr("Text", schema.StringDomain)}},
		{Name: "C", Attributes: []schema.AttrSpec{schema.NewCompositeSetAttr("Sub", "D").WithExclusive(false)}},
		{Name: "Q", Attributes: []schema.AttrSpec{
			schema.NewAttr("Text", schema.StringDomain),
			schema.NewCompositeSetAttr("Refs", "D").WithExclusive(false).WithDependent(false),
		}},
		{Name: "P", Attributes: []schema.AttrSpec{schema.NewCompositeSetAttr("Sub", "C")}},
	} {
		if _, err := cat.DefineClass(def); err != nil {
			t.Fatal(err)
		}
	}
	e := core.NewEngine(cat)
	m := NewManager(e)
	var p, c, d, q uid.UID
	if err := m.Run(func(tx *Txn) error {
		objs := map[string]*uid.UID{"P": &p, "C": &c, "D": &d, "Q": &q}
		for class, id := range objs {
			o, err := tx.New(class, nil)
			if err != nil {
				return err
			}
			*id = o.UID()
		}
		if err := tx.Attach(c, "Sub", d); err != nil {
			return err
		}
		return tx.Attach(q, "Refs", d)
	}); err != nil {
		t.Fatal(err)
	}

	t1 := m.Begin()
	if err := t1.Attach(p, "Sub", c); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Delete(p); err != nil {
		t.Fatal(err)
	}
	if !m.Locks().Holds(t1.ID(), lock.InstanceGranule(q), lock.X) {
		t.Fatal("delete admission did not lock the unit of Q, which the cascade edits")
	}
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(tx *Txn) error { return tx.WriteAttr(q, "Text", value.Str("t2")) })
	}()
	select {
	case err := <-done:
		t.Fatalf("writer of Q ran while the cascade held Q in an open transaction (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer of Q stuck after the deleting transaction committed")
	}
	for _, id := range []uid.UID{p, c, d} {
		if e.Exists(id) {
			t.Fatalf("%v survived the cascade", id)
		}
	}
	qo, err := e.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := qo.Get("Text").AsString(); s != "t2" {
		t.Fatalf("Q.Text = %q: the second writer's update was lost", s)
	}
	if v := e.Integrity(); len(v) != 0 {
		t.Fatalf("integrity: %v", v)
	}
}
