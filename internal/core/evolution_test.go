package core

import (
	"errors"
	"testing"

	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

func TestDropCompositeAttributeCascades(t *testing.T) {
	// §4.1 change 1: dropping a dependent composite attribute deletes the
	// referenced components per the Deletion Rule.
	e := documentEngine(t)
	doc := mustNew(t, e, "Document", nil)
	note := mustNew(t, e, "Paragraph", nil, ParentSpec{Parent: doc.UID(), Attr: "Annotations"})
	img := mustNew(t, e, "Image", nil)
	if err := e.Attach(doc.UID(), "Figures", img.UID()); err != nil {
		t.Fatal(err)
	}

	// Dropping the dependent exclusive Annotations attribute kills notes.
	deleted, err := e.DropAttribute(0, "Document", "Annotations")
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || deleted[0] != note.UID() {
		t.Fatalf("deleted = %v", deleted)
	}
	if e.Exists(note.UID()) {
		t.Fatal("annotation survived attribute drop")
	}
	do, _ := e.Get(doc.UID())
	if do.Has("Annotations") {
		t.Fatal("instances kept values for the dropped attribute")
	}

	// Dropping the independent Figures attribute unlinks but keeps images.
	deleted, err = e.DropAttribute(0, "Document", "Figures")
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 0 {
		t.Fatalf("deleted = %v", deleted)
	}
	if !e.Exists(img.UID()) {
		t.Fatal("independent figure deleted by attribute drop")
	}
	io, _ := e.Get(img.UID())
	if io.HasAnyReverse() {
		t.Fatal("stale reverse ref after attribute drop")
	}
	checkClean(t, e)
}

func TestDropSharedDependentAttributeLastParentRule(t *testing.T) {
	// Dropping a dependent-shared attribute deletes a component only when
	// no other dependent-shared parent holds it.
	e := documentEngine(t)
	para := mustNew(t, e, "Paragraph", nil)
	sec := mustNew(t, e, "Section", map[string]value.Value{
		"Content": value.RefSet(para.UID()),
	})
	doc := mustNew(t, e, "Document", map[string]value.Value{
		"Sections": value.RefSet(sec.UID()),
	})
	_ = doc
	// The paragraph is held only by the section. Dropping Section.Content
	// deletes all paragraphs held solely through it.
	deleted, err := e.DropAttribute(0, "Section", "Content")
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || deleted[0] != para.UID() {
		t.Fatalf("deleted = %v", deleted)
	}
	checkClean(t, e)
}

func TestRemoveSuperclassCascades(t *testing.T) {
	// §4.1 change 3: removing a superclass that contributed a composite
	// attribute drops the attribute's components per the Deletion Rule.
	cat := schema.NewCatalog()
	cat.DefineClass(schema.ClassDef{Name: "Attachment"})
	cat.DefineClass(schema.ClassDef{Name: "Annotated", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Notes", "Attachment"), // dependent exclusive
	}})
	cat.DefineClass(schema.ClassDef{Name: "Memo", Superclasses: []string{"Annotated"}, Attributes: []schema.AttrSpec{
		schema.NewAttr("Body", schema.StringDomain),
	}})
	e := NewEngine(cat)
	memo := mustNew(t, e, "Memo", map[string]value.Value{"Body": value.Str("x")})
	note := mustNew(t, e, "Attachment", nil, ParentSpec{Parent: memo.UID(), Attr: "Notes"})

	deleted, err := e.RemoveSuperclass(0, "Memo", "Annotated")
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || deleted[0] != note.UID() {
		t.Fatalf("deleted = %v", deleted)
	}
	mo, _ := e.Get(memo.UID())
	if mo.Has("Notes") {
		t.Fatal("value for lost attribute survived")
	}
	if b, _ := mo.Get("Body").AsString(); b != "x" {
		t.Fatal("own attribute damaged")
	}
	checkClean(t, e)
}

func TestDropClassDeletesInstances(t *testing.T) {
	// §4.1 change 4.
	e := documentEngine(t)
	doc := mustNew(t, e, "Document", nil)
	note := mustNew(t, e, "Paragraph", nil, ParentSpec{Parent: doc.UID(), Attr: "Annotations"})
	doc2 := mustNew(t, e, "Document", nil)

	deleted, err := e.DropClass(0, "Document")
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 3 { // doc, doc2, note (dependent)
		t.Fatalf("deleted = %v", deleted)
	}
	if e.Exists(doc.UID()) || e.Exists(doc2.UID()) || e.Exists(note.UID()) {
		t.Fatal("instances survived class drop")
	}
	if e.Catalog().Has("Document") {
		t.Fatal("class still in catalog")
	}
	checkClean(t, e)
}

func TestDropClassRejectedWhenDomain(t *testing.T) {
	e := documentEngine(t)
	sec := mustNew(t, e, "Section", nil)
	if _, err := e.DropClass(0, "Section"); err == nil {
		t.Fatal("dropped a class used as a domain")
	}
	// The instance must be untouched by the failed drop.
	if !e.Exists(sec.UID()) {
		t.Fatal("failed DropClass deleted instances")
	}
}

func TestImmediateChangeI2RewritesFlags(t *testing.T) {
	e := documentEngine(t)
	doc := mustNew(t, e, "Document", nil)
	note := mustNew(t, e, "Paragraph", nil, ParentSpec{Parent: doc.UID(), Attr: "Annotations"})
	no, _ := e.Get(note.UID())
	if len(no.DX()) != 1 {
		t.Fatalf("precondition: DX = %v", no.DX())
	}
	// I2 immediate: Annotations becomes shared; the note's X flag is off.
	if err := e.ChangeAttributeType(0, "Document", "Annotations", schema.ChangeToShared, false); err != nil {
		t.Fatal(err)
	}
	no, _ = e.Get(note.UID())
	if len(no.DS()) != 1 || len(no.DX()) != 0 {
		t.Fatalf("flags after immediate I2: %+v", no.Reverse())
	}
	// The note can now be shared with a second document.
	doc2 := mustNew(t, e, "Document", nil)
	if err := e.Attach(doc2.UID(), "Annotations", note.UID()); err != nil {
		t.Fatalf("sharing after I2: %v", err)
	}
	checkClean(t, e)
}

func TestImmediateChangeI1RemovesReverse(t *testing.T) {
	e := documentEngine(t)
	doc := mustNew(t, e, "Document", nil)
	img := mustNew(t, e, "Image", nil)
	if err := e.Attach(doc.UID(), "Figures", img.UID()); err != nil {
		t.Fatal(err)
	}
	if err := e.ChangeAttributeType(0, "Document", "Figures", schema.ChangeDropComposite, false); err != nil {
		t.Fatal(err)
	}
	io, _ := e.Get(img.UID())
	if io.HasAnyReverse() {
		t.Fatal("reverse ref survived I1")
	}
	// The forward reference survives as a weak reference.
	do, _ := e.Get(doc.UID())
	if !do.Get("Figures").ContainsRef(img.UID()) {
		t.Fatal("forward ref lost by I1")
	}
	checkClean(t, e)
}

func TestDeferredChangeAppliedOnAccess(t *testing.T) {
	e := documentEngine(t)
	doc := mustNew(t, e, "Document", nil)
	note := mustNew(t, e, "Paragraph", nil, ParentSpec{Parent: doc.UID(), Attr: "Annotations"})
	// Deferred I3: Annotations dependent -> independent.
	if err := e.ChangeAttributeType(0, "Document", "Annotations", schema.ChangeToIndependent, true); err != nil {
		t.Fatal(err)
	}
	// Access through Get applies the pending change.
	no, err := e.Get(note.UID())
	if err != nil {
		t.Fatal(err)
	}
	if len(no.IX()) != 1 || len(no.DX()) != 0 {
		t.Fatalf("flags after deferred I3 + access: %+v", no.Reverse())
	}
	// Deletion semantics now follow the new flags: the note survives.
	deleted, err := e.Delete(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || !e.Exists(note.UID()) {
		t.Fatalf("deleted = %v; note must survive after I3", deleted)
	}
	checkClean(t, e)
}

func TestDeferredChangeAppliedDuringDeletion(t *testing.T) {
	// Even if the object is never Get-accessed, Delete must apply pending
	// changes before consulting the flags.
	e := documentEngine(t)
	doc := mustNew(t, e, "Document", nil)
	note := mustNew(t, e, "Paragraph", nil, ParentSpec{Parent: doc.UID(), Attr: "Annotations"})
	if err := e.ChangeAttributeType(0, "Document", "Annotations", schema.ChangeToIndependent, true); err != nil {
		t.Fatal(err)
	}
	deleted, err := e.Delete(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || !e.Exists(note.UID()) {
		t.Fatalf("deferred I3 not honored by Delete: %v", deleted)
	}
	checkClean(t, e)
}

func TestD1WeakToExclusiveComposite(t *testing.T) {
	e := vehicleEngine(t)
	v := mustNew(t, e, "Vehicle", nil)
	co := mustNew(t, e, "Company", nil)
	if err := e.Attach(v.UID(), "Manufacturer", co.UID()); err != nil {
		t.Fatal(err)
	}
	// D1: Manufacturer weak -> exclusive composite (independent).
	if err := e.MakeComposite(0, "Vehicle", "Manufacturer", true, false); err != nil {
		t.Fatal(err)
	}
	coObj, _ := e.Get(co.UID())
	if len(coObj.IX()) != 1 || coObj.IX()[0] != v.UID() {
		t.Fatalf("reverse refs after D1: %+v", coObj.Reverse())
	}
	a, _ := e.Catalog().Attribute("Vehicle", "Manufacturer")
	if a.RefKind() != schema.IndependentExclusive {
		t.Fatalf("spec after D1: %v", a.RefKind())
	}
	checkClean(t, e)
}

func TestD1RejectedWhenChildHasCompositeParent(t *testing.T) {
	e := vehicleEngine(t)
	v := mustNew(t, e, "Vehicle", nil)
	body := mustNew(t, e, "AutoBody", nil, ParentSpec{Parent: v.UID(), Attr: "Body"})
	_ = body
	// Make a weak Vehicle->Vehicle attr? Instead: weak attr whose value
	// points at an object that already has a composite parent.
	cat := e.Catalog()
	if err := cat.AddAttribute("Vehicle", schema.NewAttr("Spare", schema.ClassDomain("AutoBody"))); err != nil {
		t.Fatal(err)
	}
	v2 := mustNew(t, e, "Vehicle", nil)
	if err := e.Attach(v2.UID(), "Spare", body.UID()); err != nil {
		t.Fatal(err)
	}
	if err := e.MakeComposite(0, "Vehicle", "Spare", true, false); !errors.Is(err, ErrChangeRejected) {
		t.Fatalf("D1 over referenced-with-parent child: %v", err)
	}
	// Spec unchanged after rejection.
	a, _ := cat.Attribute("Vehicle", "Spare")
	if a.Composite {
		t.Fatal("rejected D1 mutated the spec")
	}
	checkClean(t, e)
}

func TestD1RejectedOnSharedWeakTargets(t *testing.T) {
	// Two instances weak-reference the same object: making the attribute
	// exclusive would create two exclusive parents, violating Rule 1.
	e := vehicleEngine(t)
	co := mustNew(t, e, "Company", nil)
	v1 := mustNew(t, e, "Vehicle", nil)
	v2 := mustNew(t, e, "Vehicle", nil)
	e.Attach(v1.UID(), "Manufacturer", co.UID())
	e.Attach(v2.UID(), "Manufacturer", co.UID())
	if err := e.MakeComposite(0, "Vehicle", "Manufacturer", true, false); !errors.Is(err, ErrChangeRejected) {
		t.Fatalf("D1 with two referencing parents: %v", err)
	}
	// D2 (shared) succeeds on the same state.
	if err := e.MakeComposite(0, "Vehicle", "Manufacturer", false, false); err != nil {
		t.Fatalf("D2: %v", err)
	}
	coObj, _ := e.Get(co.UID())
	if len(coObj.IS()) != 2 {
		t.Fatalf("IS after D2 = %v", coObj.IS())
	}
	checkClean(t, e)
}

func TestD2RejectedWhenChildHasExclusiveParent(t *testing.T) {
	e := vehicleEngine(t)
	v := mustNew(t, e, "Vehicle", nil)
	body := mustNew(t, e, "AutoBody", nil, ParentSpec{Parent: v.UID(), Attr: "Body"})
	cat := e.Catalog()
	if err := cat.AddAttribute("Vehicle", schema.NewAttr("Spare", schema.ClassDomain("AutoBody"))); err != nil {
		t.Fatal(err)
	}
	v2 := mustNew(t, e, "Vehicle", nil)
	e.Attach(v2.UID(), "Spare", body.UID())
	if err := e.MakeComposite(0, "Vehicle", "Spare", false, false); !errors.Is(err, ErrChangeRejected) {
		t.Fatalf("D2 over exclusively-held child: %v", err)
	}
	checkClean(t, e)
}

func TestD3SharedToExclusive(t *testing.T) {
	e := documentEngine(t)
	doc := mustNew(t, e, "Document", nil)
	img := mustNew(t, e, "Image", nil)
	e.Attach(doc.UID(), "Figures", img.UID())
	// Only one shared parent: D3 succeeds.
	if err := e.MakeExclusive(0, "Document", "Figures"); err != nil {
		t.Fatal(err)
	}
	io, _ := e.Get(img.UID())
	if len(io.IX()) != 1 {
		t.Fatalf("X flag not set: %+v", io.Reverse())
	}
	a, _ := e.Catalog().Attribute("Document", "Figures")
	if a.RefKind() != schema.IndependentExclusive {
		t.Fatalf("spec after D3: %v", a.RefKind())
	}
	checkClean(t, e)
}

func TestD3RejectedOnMultipleParents(t *testing.T) {
	e := documentEngine(t)
	doc1 := mustNew(t, e, "Document", nil)
	doc2 := mustNew(t, e, "Document", nil)
	img := mustNew(t, e, "Image", nil)
	e.Attach(doc1.UID(), "Figures", img.UID())
	e.Attach(doc2.UID(), "Figures", img.UID())
	if err := e.MakeExclusive(0, "Document", "Figures"); !errors.Is(err, ErrChangeRejected) {
		t.Fatalf("D3 with two parents: %v", err)
	}
	// Spec unchanged.
	a, _ := e.Catalog().Attribute("Document", "Figures")
	if a.Exclusive {
		t.Fatal("rejected D3 mutated the spec")
	}
	checkClean(t, e)
}

func TestD3WrongKindRejected(t *testing.T) {
	e := documentEngine(t)
	if err := e.MakeExclusive(0, "Document", "Annotations"); !errors.Is(err, ErrChangeRejected) {
		t.Fatalf("D3 of already-exclusive: %v", err)
	}
	if err := e.MakeExclusive(0, "Document", "Title"); !errors.Is(err, ErrChangeRejected) {
		t.Fatalf("D3 of non-composite: %v", err)
	}
	if err := e.MakeComposite(0, "Document", "Sections", true, true); !errors.Is(err, ErrChangeRejected) {
		t.Fatalf("D1 of already-composite: %v", err)
	}
	if err := e.MakeComposite(0, "Document", "Title", true, true); !errors.Is(err, ErrChangeRejected) {
		t.Fatalf("D1 of primitive: %v", err)
	}
}

func TestImmediateVsDeferredEquivalence(t *testing.T) {
	// The same sequence of changes applied immediately and deferred must
	// converge to identical reverse-reference state once objects are
	// accessed.
	build := func() (*Engine, uid.UID) {
		e := documentEngine(t)
		doc := mustNew(t, e, "Document", nil)
		note := mustNew(t, e, "Paragraph", nil, ParentSpec{Parent: doc.UID(), Attr: "Annotations"})
		return e, note.UID()
	}
	eImm, noteImm := build()
	eDef, noteDef := build()
	for _, k := range []schema.ChangeKind{schema.ChangeToShared, schema.ChangeToIndependent} {
		if err := eImm.ChangeAttributeType(0, "Document", "Annotations", k, false); err != nil {
			t.Fatal(err)
		}
		if err := eDef.ChangeAttributeType(0, "Document", "Annotations", k, true); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := eImm.Get(noteImm)
	b, _ := eDef.Get(noteDef)
	ra, rb := a.Reverse(), b.Reverse()
	if len(ra) != len(rb) {
		t.Fatalf("reverse counts differ: %v vs %v", ra, rb)
	}
	for i := range ra {
		if ra[i].Dependent != rb[i].Dependent || ra[i].Exclusive != rb[i].Exclusive {
			t.Fatalf("flag divergence at %d: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	checkClean(t, eImm)
	checkClean(t, eDef)
}

func TestRenameAttribute(t *testing.T) {
	e := documentEngine(t)
	doc := mustNew(t, e, "Document", map[string]value.Value{"Title": value.Str("x")})
	if err := e.RenameAttribute(0, "Document", "Title", "Heading"); err != nil {
		t.Fatal(err)
	}
	o, _ := e.Get(doc.UID())
	if o.Has("Title") {
		t.Fatal("old attribute value survived")
	}
	if s, _ := o.Get("Heading").AsString(); s != "x" {
		t.Fatalf("Heading = %v", o.Get("Heading"))
	}
	if _, err := e.Catalog().Attribute("Document", "Heading"); err != nil {
		t.Fatal("catalog rename failed")
	}
	// Renaming a composite attribute keeps the graph consistent (reverse
	// refs don't name attributes).
	note := mustNew(t, e, "Paragraph", nil, ParentSpec{Parent: doc.UID(), Attr: "Annotations"})
	if err := e.RenameAttribute(0, "Document", "Annotations", "Notes"); err != nil {
		t.Fatal(err)
	}
	checkClean(t, e)
	deleted, _ := e.Delete(doc.UID())
	if len(deleted) != 2 || e.Exists(note.UID()) {
		t.Fatalf("dependent semantics broken by rename: %v", deleted)
	}
	// Errors: duplicate and missing names.
	if err := e.RenameAttribute(0, "Document", "Sections", "Figures"); !errors.Is(err, schema.ErrDupAttr) {
		t.Fatalf("dup rename: %v", err)
	}
	if err := e.RenameAttribute(0, "Document", "Ghost", "X"); !errors.Is(err, schema.ErrNoAttr) {
		t.Fatalf("ghost rename: %v", err)
	}
}
