package core

import (
	"errors"
	"testing"

	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

// vehicleEngine builds Example 1 of §2.3: a Vehicle with independent
// exclusive composite references to AutoBody, AutoDrivetrain, and a set of
// AutoTires, plus a weak Manufacturer reference.
func vehicleEngine(t *testing.T) *Engine {
	t.Helper()
	cat := schema.NewCatalog()
	for _, n := range []string{"Company", "AutoBody", "AutoDrivetrain", "AutoTires"} {
		if _, err := cat.DefineClass(schema.ClassDef{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := cat.DefineClass(schema.ClassDef{
		Name: "Vehicle",
		Attributes: []schema.AttrSpec{
			schema.NewAttr("Id", schema.IntDomain),
			schema.NewAttr("Manufacturer", schema.ClassDomain("Company")),
			schema.NewCompositeAttr("Body", "AutoBody").WithDependent(false),
			schema.NewCompositeAttr("Drivetrain", "AutoDrivetrain").WithDependent(false),
			schema.NewCompositeSetAttr("Tires", "AutoTires").WithDependent(false),
			schema.NewAttr("Color", schema.StringDomain),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(cat)
}

// documentEngine builds Example 2 of §2.3: Documents with shared dependent
// Sections (of shared dependent Paragraphs), shared independent Figures,
// and exclusive dependent Annotations.
func documentEngine(t *testing.T) *Engine {
	t.Helper()
	cat := schema.NewCatalog()
	for _, n := range []string{"Paragraph", "Image"} {
		if _, err := cat.DefineClass(schema.ClassDef{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.DefineClass(schema.ClassDef{
		Name: "Section",
		Attributes: []schema.AttrSpec{
			schema.NewCompositeSetAttr("Content", "Paragraph").WithExclusive(false),
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DefineClass(schema.ClassDef{
		Name: "Document",
		Attributes: []schema.AttrSpec{
			schema.NewAttr("Title", schema.StringDomain),
			schema.NewCompositeSetAttr("Sections", "Section").WithExclusive(false),
			schema.NewCompositeSetAttr("Figures", "Image").WithExclusive(false).WithDependent(false),
			schema.NewCompositeSetAttr("Annotations", "Paragraph"),
		},
	}); err != nil {
		t.Fatal(err)
	}
	return NewEngine(cat)
}

func mustNew(t *testing.T, e *Engine, class string, attrs map[string]value.Value, parents ...ParentSpec) *object.Object {
	t.Helper()
	o, err := e.New(class, attrs, parents...)
	if err != nil {
		t.Fatalf("New(%s): %v", class, err)
	}
	return o
}

func checkClean(t *testing.T, e *Engine) {
	t.Helper()
	if v := e.Integrity(); len(v) != 0 {
		t.Fatalf("integrity violations: %v", v)
	}
}

func TestNewAndGet(t *testing.T) {
	e := vehicleEngine(t)
	body := mustNew(t, e, "AutoBody", nil)
	if !e.Exists(body.UID()) {
		t.Fatal("created object does not exist")
	}
	got, err := e.Get(body.UID())
	if err != nil || got.UID() != body.UID() {
		t.Fatalf("Get: %v %v", got, err)
	}
	if _, err := e.Get(uid.UID{Class: 99, Serial: 1}); !errors.Is(err, ErrNoObject) {
		t.Fatalf("Get ghost: %v", err)
	}
	if _, err := e.New("Ghost", nil); !errors.Is(err, schema.ErrNoClass) {
		t.Fatalf("New of ghost class: %v", err)
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d", e.Len())
	}
}

func TestNewWithAttrsValidated(t *testing.T) {
	e := vehicleEngine(t)
	v := mustNew(t, e, "Vehicle", map[string]value.Value{
		"Id":    value.Int(7),
		"Color": value.Str("red"),
	})
	if got, _ := v.Get("Id").AsInt(); got != 7 {
		t.Fatalf("Id = %v", v.Get("Id"))
	}
	// Bad domain rejected, and the object is not half-created.
	before := e.Len()
	if _, err := e.New("Vehicle", map[string]value.Value{"Id": value.Str("oops")}); !errors.Is(err, schema.ErrDomainMismatch) {
		t.Fatalf("bad attr: %v", err)
	}
	if e.Len() != before {
		t.Fatal("failed New leaked an object")
	}
	// Unknown attribute rejected.
	if _, err := e.New("Vehicle", map[string]value.Value{"Ghost": value.Int(1)}); !errors.Is(err, schema.ErrNoAttr) {
		t.Fatalf("ghost attr: %v", err)
	}
}

func TestInitialValuesApplied(t *testing.T) {
	cat := schema.NewCatalog()
	if _, err := cat.DefineClass(schema.ClassDef{
		Name: "C",
		Attributes: []schema.AttrSpec{
			schema.NewAttr("n", schema.IntDomain).WithInitial(value.Int(42)),
			schema.NewAttr("s", schema.StringDomain),
		},
	}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat)
	o := mustNew(t, e, "C", nil)
	if got, _ := o.Get("n").AsInt(); got != 42 {
		t.Fatalf("init value = %v", o.Get("n"))
	}
	// Explicit value overrides the default.
	o2 := mustNew(t, e, "C", map[string]value.Value{"n": value.Int(1)})
	if got, _ := o2.Get("n").AsInt(); got != 1 {
		t.Fatalf("explicit value = %v", o2.Get("n"))
	}
}

func TestVehicleExample(t *testing.T) {
	// Example 1 (§2.3): vehicle parts are exclusive (one vehicle at a
	// time) but independent (reusable after dismantling).
	e := vehicleEngine(t)
	body := mustNew(t, e, "AutoBody", nil)
	dt := mustNew(t, e, "AutoDrivetrain", nil)
	t1 := mustNew(t, e, "AutoTires", nil)
	t2 := mustNew(t, e, "AutoTires", nil)

	// Bottom-up assembly of an existing body etc. into a new vehicle.
	v := mustNew(t, e, "Vehicle", map[string]value.Value{
		"Body":       value.Ref(body.UID()),
		"Drivetrain": value.Ref(dt.UID()),
		"Tires":      value.RefSet(t1.UID(), t2.UID()),
	})
	checkClean(t, e)

	// The parts may be used for only one vehicle at any point in time.
	if _, err := e.New("Vehicle", map[string]value.Value{
		"Body": value.Ref(body.UID()),
	}); !errors.Is(err, ErrTopologyViolation) {
		t.Fatalf("body used for two vehicles: %v", err)
	}

	// Dismantle the vehicle: its components survive (independent refs)...
	deleted, err := e.Delete(v.UID())
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || deleted[0] != v.UID() {
		t.Fatalf("deleted = %v, want only the vehicle", deleted)
	}
	for _, part := range []uid.UID{body.UID(), dt.UID(), t1.UID(), t2.UID()} {
		if !e.Exists(part) {
			t.Fatalf("part %v deleted with the vehicle; independent refs must not cascade", part)
		}
		po, _ := e.Get(part)
		if po.HasAnyReverse() {
			t.Fatalf("part %v still has a reverse ref after dismantling", part)
		}
	}
	// ... and can now be re-used for another vehicle.
	if _, err := e.New("Vehicle", map[string]value.Value{
		"Body":  value.Ref(body.UID()),
		"Tires": value.RefSet(t1.UID()),
	}); err != nil {
		t.Fatalf("re-use after dismantling: %v", err)
	}
	checkClean(t, e)
}

func TestDocumentExample(t *testing.T) {
	// Example 2 (§2.3): an identical section may be part of two books; a
	// paragraph exists while at least one section contains it.
	e := documentEngine(t)
	para := mustNew(t, e, "Paragraph", nil)
	sec := mustNew(t, e, "Section", map[string]value.Value{
		"Content": value.RefSet(para.UID()),
	})
	img := mustNew(t, e, "Image", nil)
	doc1 := mustNew(t, e, "Document", map[string]value.Value{
		"Title":    value.Str("Book One"),
		"Sections": value.RefSet(sec.UID()),
		"Figures":  value.RefSet(img.UID()),
	})
	doc2 := mustNew(t, e, "Document", map[string]value.Value{
		"Title":    value.Str("Book Two"),
		"Sections": value.RefSet(sec.UID()), // the shared chapter
	})
	checkClean(t, e)

	// The section has two dependent-shared parents.
	so, _ := e.Get(sec.UID())
	if len(so.DS()) != 2 {
		t.Fatalf("DS(section) = %v", so.DS())
	}
	// Annotations are exclusive: a paragraph already in a section cannot
	// become an annotation.
	if err := e.Attach(doc1.UID(), "Annotations", para.UID()); !errors.Is(err, ErrTopologyViolation) {
		t.Fatalf("shared paragraph became an exclusive annotation: %v", err)
	}
	// A fresh annotation works, and is exclusive to doc1.
	note := mustNew(t, e, "Paragraph", nil)
	if err := e.Attach(doc1.UID(), "Annotations", note.UID()); err != nil {
		t.Fatal(err)
	}
	if err := e.Attach(doc2.UID(), "Annotations", note.UID()); !errors.Is(err, ErrTopologyViolation) {
		t.Fatalf("annotation shared between documents: %v", err)
	}

	// Deleting doc1: the shared section survives (doc2 still holds it);
	// the exclusive dependent annotation dies; the independent image
	// survives.
	deleted, err := e.Delete(doc1.UID())
	if err != nil {
		t.Fatal(err)
	}
	wantDead := map[uid.UID]bool{doc1.UID(): true, note.UID(): true}
	if len(deleted) != len(wantDead) {
		t.Fatalf("deleted = %v", deleted)
	}
	for _, d := range deleted {
		if !wantDead[d] {
			t.Fatalf("unexpected casualty %v", d)
		}
	}
	if !e.Exists(sec.UID()) || !e.Exists(img.UID()) || !e.Exists(para.UID()) {
		t.Fatal("shared/independent components died with doc1")
	}
	checkClean(t, e)

	// Deleting doc2 — the last document holding the section — cascades
	// through section to the paragraph ("for a paragraph to exist, there
	// must be at least one section containing it").
	deleted, err = e.Delete(doc2.UID())
	if err != nil {
		t.Fatal(err)
	}
	wantDead = map[uid.UID]bool{doc2.UID(): true, sec.UID(): true, para.UID(): true}
	if len(deleted) != len(wantDead) {
		t.Fatalf("deleted = %v", deleted)
	}
	if !e.Exists(img.UID()) {
		t.Fatal("independent image deleted")
	}
	checkClean(t, e)
}

func TestExtent(t *testing.T) {
	e := vehicleEngine(t)
	mustNew(t, e, "AutoTires", nil)
	mustNew(t, e, "AutoTires", nil)
	mustNew(t, e, "AutoBody", nil)
	ext, err := e.Extent("AutoTires", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 2 {
		t.Fatalf("extent = %v", ext)
	}
	// Subclass instances are included when requested.
	cat := e.Catalog()
	if _, err := cat.DefineClass(schema.ClassDef{Name: "SnowTires", Superclasses: []string{"AutoTires"}}); err != nil {
		t.Fatal(err)
	}
	mustNew(t, e, "SnowTires", nil)
	ext, _ = e.Extent("AutoTires", false)
	if len(ext) != 2 {
		t.Fatalf("non-deep extent = %v", ext)
	}
	ext, _ = e.Extent("AutoTires", true)
	if len(ext) != 3 {
		t.Fatalf("deep extent = %v", ext)
	}
}

func TestLoadRestoresAndSeedsGenerator(t *testing.T) {
	e := vehicleEngine(t)
	cl, _ := e.Catalog().Class("AutoBody")
	o := object.New(uid.UID{Class: cl.ID, Serial: 50})
	if err := e.Restore(map[uid.UID]*object.Object{o.UID(): o}); err != nil {
		t.Fatal(err)
	}
	if !e.Exists(o.UID()) {
		t.Fatal("loaded object missing")
	}
	// New objects must not collide with loaded serials.
	n := mustNew(t, e, "AutoBody", nil)
	if n.UID().Serial <= 50 {
		t.Fatalf("generator not seeded: new serial %d", n.UID().Serial)
	}
	// A restored deletion removes the object and seeds the generator too.
	gone := uid.UID{Class: cl.ID, Serial: 80}
	if err := e.Restore(map[uid.UID]*object.Object{o.UID(): nil, gone: nil}); err != nil {
		t.Fatal(err)
	}
	if e.Exists(o.UID()) {
		t.Fatal("restored deletion left the object")
	}
	if n := mustNew(t, e, "AutoBody", nil); n.UID().Serial <= 80 {
		t.Fatalf("generator not seeded by a deletion: new serial %d", n.UID().Serial)
	}
	// Loading an object of an unknown class fails.
	bad := object.New(uid.UID{Class: 999, Serial: 1})
	if err := e.Restore(map[uid.UID]*object.Object{bad.UID(): bad}); !errors.Is(err, schema.ErrNoClass) {
		t.Fatalf("load unknown class: %v", err)
	}
}

// hookRecorder records hook invocations for write-through tests.
type hookRecorder struct {
	writes  []uid.UID
	deletes []uid.UID
}

func (h *hookRecorder) OnWrite(_ TxnID, o *object.Object) error {
	h.writes = append(h.writes, o.UID())
	return nil
}

func (h *hookRecorder) OnDelete(_ TxnID, id uid.UID) error {
	h.deletes = append(h.deletes, id)
	return nil
}

func TestHookWriteThrough(t *testing.T) {
	e := documentEngine(t)
	h := &hookRecorder{}
	e.SetHook(h)
	para := mustNew(t, e, "Paragraph", nil)
	sec := mustNew(t, e, "Section", nil)
	if err := e.Attach(sec.UID(), "Content", para.UID()); err != nil {
		t.Fatal(err)
	}
	// Attach dirties both section (forward ref) and paragraph (reverse).
	found := map[uid.UID]bool{}
	for _, w := range h.writes {
		found[w] = true
	}
	if !found[sec.UID()] || !found[para.UID()] {
		t.Fatalf("writes = %v", h.writes)
	}
	if _, err := e.Delete(sec.UID()); err != nil {
		t.Fatal(err)
	}
	if len(h.deletes) != 2 { // section + dependent paragraph
		t.Fatalf("deletes = %v", h.deletes)
	}
}
