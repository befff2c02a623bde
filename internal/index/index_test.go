package index

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

func fixture(t *testing.T) (*core.Engine, *Manager) {
	t.Helper()
	cat := schema.NewCatalog()
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Part", Attributes: []schema.AttrSpec{
		schema.NewAttr("Material", schema.StringDomain),
		schema.NewAttr("Mass", schema.IntDomain),
		schema.NewSetAttr("Tags", schema.StringDomain),
	}}); err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(cat)
	m := NewManager(e)
	e.SetHook(core.MultiHook{m})
	return e, m
}

func mk(t *testing.T, e *core.Engine, mat string, mass int64) uid.UID {
	t.Helper()
	o, err := e.New("Part", map[string]value.Value{
		"Material": value.Str(mat), "Mass": value.Int(mass),
	})
	if err != nil {
		t.Fatal(err)
	}
	return o.UID()
}

func TestCreateAndLookup(t *testing.T) {
	e, m := fixture(t)
	a := mk(t, e, "steel", 5)
	b := mk(t, e, "steel", 7)
	c := mk(t, e, "alu", 5)
	// Index created AFTER the data: Build populates from the extent.
	if err := m.CreateIndex("Part", "Material"); err != nil {
		t.Fatal(err)
	}
	got, err := m.Lookup("Part", "Material", value.Str("steel"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uid.UID{a, b}) {
		t.Fatalf("steel = %v", got)
	}
	got, _ = m.Lookup("Part", "Material", value.Str("alu"))
	if !reflect.DeepEqual(got, []uid.UID{c}) {
		t.Fatalf("alu = %v", got)
	}
	got, _ = m.Lookup("Part", "Material", value.Str("ghost"))
	if len(got) != 0 {
		t.Fatalf("ghost = %v", got)
	}
	objects, values, err := m.Stats("Part", "Material")
	if err != nil || objects != 3 || values != 2 {
		t.Fatalf("stats = %d/%d, %v", objects, values, err)
	}
}

func TestHookMaintainsIndex(t *testing.T) {
	e, m := fixture(t)
	if err := m.CreateIndex("Part", "Material"); err != nil {
		t.Fatal(err)
	}
	// Insert after index creation: hook inserts.
	a := mk(t, e, "steel", 5)
	got, _ := m.Lookup("Part", "Material", value.Str("steel"))
	if !reflect.DeepEqual(got, []uid.UID{a}) {
		t.Fatalf("after insert = %v", got)
	}
	// Update moves the posting.
	if err := e.Set(a, "Material", value.Str("brass")); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Lookup("Part", "Material", value.Str("steel")); len(got) != 0 {
		t.Fatalf("stale posting: %v", got)
	}
	if got, _ := m.Lookup("Part", "Material", value.Str("brass")); !reflect.DeepEqual(got, []uid.UID{a}) {
		t.Fatalf("after update = %v", got)
	}
	// Delete removes it.
	if _, err := e.Delete(a); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Lookup("Part", "Material", value.Str("brass")); len(got) != 0 {
		t.Fatalf("posting survived delete: %v", got)
	}
}

func TestKindsDoNotCollide(t *testing.T) {
	e, m := fixture(t)
	if err := m.CreateIndex("Part", "Mass"); err != nil {
		t.Fatal(err)
	}
	a := mk(t, e, "x", 5)
	// Real 5 must not hit the Int 5 posting.
	got, _ := m.Lookup("Part", "Mass", value.Real(5))
	if len(got) != 0 {
		t.Fatalf("Real(5) matched Int(5): %v", got)
	}
	got, _ = m.Lookup("Part", "Mass", value.Int(5))
	if !reflect.DeepEqual(got, []uid.UID{a}) {
		t.Fatalf("Int(5) = %v", got)
	}
}

func TestSetValuedAttributeIndexedPerElement(t *testing.T) {
	e, m := fixture(t)
	if err := m.CreateIndex("Part", "Tags"); err != nil {
		t.Fatal(err)
	}
	o, _ := e.New("Part", map[string]value.Value{
		"Tags": value.SetOf(value.Str("new"), value.Str("fragile")),
	})
	for _, tag := range []string{"new", "fragile"} {
		got, _ := m.Lookup("Part", "Tags", value.Str(tag))
		if !reflect.DeepEqual(got, []uid.UID{o.UID()}) {
			t.Fatalf("tag %q = %v", tag, got)
		}
	}
	// Dropping a tag removes only that posting.
	e.Set(o.UID(), "Tags", value.SetOf(value.Str("fragile")))
	if got, _ := m.Lookup("Part", "Tags", value.Str("new")); len(got) != 0 {
		t.Fatalf("stale tag: %v", got)
	}
}

func TestSubclassInstancesIndexed(t *testing.T) {
	e, m := fixture(t)
	if _, err := e.Catalog().DefineClass(schema.ClassDef{
		Name: "Bolt", Superclasses: []string{"Part"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateIndex("Part", "Material"); err != nil {
		t.Fatal(err)
	}
	bolt, _ := e.New("Bolt", map[string]value.Value{"Material": value.Str("steel")})
	got, _ := m.Lookup("Part", "Material", value.Str("steel"))
	if !reflect.DeepEqual(got, []uid.UID{bolt.UID()}) {
		t.Fatalf("subclass instance not indexed: %v", got)
	}
}

func TestIndexErrors(t *testing.T) {
	_, m := fixture(t)
	if err := m.CreateIndex("Part", "Ghost"); !errors.Is(err, schema.ErrNoAttr) {
		t.Fatalf("ghost attr: %v", err)
	}
	if err := m.CreateIndex("Part", "Material"); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateIndex("Part", "Material"); !errors.Is(err, ErrDupIndex) {
		t.Fatalf("dup: %v", err)
	}
	if _, err := m.Lookup("Part", "Mass", value.Int(1)); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("missing index: %v", err)
	}
	if err := m.DropIndex("Part", "Material"); err != nil {
		t.Fatal(err)
	}
	if err := m.DropIndex("Part", "Material"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("double drop: %v", err)
	}
	if m.Has("Part", "Material") {
		t.Fatal("Has after drop")
	}
}

func TestChainedWithPersistenceHook(t *testing.T) {
	// The index manager composes with another hook through MultiHook and
	// both see every write.
	e, _ := func() (*core.Engine, *Manager) {
		cat := schema.NewCatalog()
		cat.DefineClass(schema.ClassDef{Name: "Part", Attributes: []schema.AttrSpec{
			schema.NewAttr("Material", schema.StringDomain),
		}})
		return core.NewEngine(cat), nil
	}()
	m := NewManager(e)
	counter := &countingHook{}
	e.SetHook(core.MultiHook{counter, m})
	if err := m.CreateIndex("Part", "Material"); err != nil {
		t.Fatal(err)
	}
	o, _ := e.New("Part", map[string]value.Value{"Material": value.Str("x")})
	if counter.writes == 0 {
		t.Fatal("first hook skipped")
	}
	got, _ := m.Lookup("Part", "Material", value.Str("x"))
	if len(got) != 1 {
		t.Fatal("second hook skipped")
	}
	e.Delete(o.UID())
	if counter.deletes == 0 {
		t.Fatal("delete hook skipped")
	}
}

type countingHook struct{ writes, deletes int }

func (h *countingHook) OnWrite(core.TxnID, *object.Object) error { h.writes++; return nil }
func (h *countingHook) OnDelete(core.TxnID, uid.UID) error       { h.deletes++; return nil }
