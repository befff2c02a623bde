package core

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

func TestCopyCompositeDeepCopiesExclusive(t *testing.T) {
	e := vehicleEngine(t)
	body := mustNew(t, e, "AutoBody", nil)
	t1 := mustNew(t, e, "AutoTires", nil)
	veh := mustNew(t, e, "Vehicle", map[string]value.Value{
		"Id":    value.Int(1),
		"Color": value.Str("red"),
		"Body":  value.Ref(body.UID()),
		"Tires": value.RefSet(t1.UID()),
	})
	copyID, mapping, err := e.CopyComposite(0, veh.UID())
	if err != nil {
		t.Fatal(err)
	}
	if copyID == veh.UID() {
		t.Fatal("copy has the original's UID")
	}
	// The copy has its own body and tire (exclusive components deep-copied).
	cp, _ := e.Get(copyID)
	newBody, ok := cp.Get("Body").AsRef()
	if !ok || newBody == body.UID() {
		t.Fatalf("copy shares the exclusive body: %v", cp.Get("Body"))
	}
	if mapping[body.UID()] != newBody {
		t.Fatalf("mapping wrong: %v", mapping)
	}
	if cp.Get("Tires").ContainsRef(t1.UID()) {
		t.Fatal("copy shares an exclusive tire")
	}
	// Scalars are copied.
	if c, _ := cp.Get("Color").AsString(); c != "red" {
		t.Fatalf("Color = %v", cp.Get("Color"))
	}
	// Both composite objects are well-formed and independent.
	checkClean(t, e)
	deleted, _ := e.Delete(copyID)
	if len(deleted) != 1 {
		t.Fatalf("deleting the copy removed %v", deleted)
	}
	if !e.Exists(body.UID()) || !e.Exists(veh.UID()) {
		t.Fatal("deleting the copy damaged the original")
	}
	checkClean(t, e)
}

func TestCopyCompositeSharesShared(t *testing.T) {
	e := documentEngine(t)
	para := mustNew(t, e, "Paragraph", nil)
	sec := mustNew(t, e, "Section", map[string]value.Value{
		"Content": value.RefSet(para.UID()),
	})
	doc := mustNew(t, e, "Document", map[string]value.Value{
		"Title":    value.Str("orig"),
		"Sections": value.RefSet(sec.UID()),
	})
	copyID, mapping, err := e.CopyComposite(0, doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	// Shared sections are NOT copied: both documents hold the same one.
	cp, _ := e.Get(copyID)
	if !cp.Get("Sections").ContainsRef(sec.UID()) {
		t.Fatalf("copy lost the shared section: %v", cp.Get("Sections"))
	}
	if _, copied := mapping[sec.UID()]; copied {
		t.Fatal("shared section was deep-copied")
	}
	so, _ := e.Get(sec.UID())
	if len(so.DS()) != 2 {
		t.Fatalf("section parents = %v", so.DS())
	}
	checkClean(t, e)
	// Deleting the original keeps the section (the copy still holds it).
	if _, err := e.Delete(doc.UID()); err != nil {
		t.Fatal(err)
	}
	if !e.Exists(sec.UID()) || !e.Exists(para.UID()) {
		t.Fatal("shared component died with the original")
	}
	checkClean(t, e)
}

func TestCopyCompositeMixed(t *testing.T) {
	// A document with a shared section, an exclusive annotation, and an
	// independent-shared figure: annotation copied, section+figure shared.
	e := documentEngine(t)
	sec := mustNew(t, e, "Section", nil)
	img := mustNew(t, e, "Image", nil)
	note := mustNew(t, e, "Paragraph", nil)
	doc := mustNew(t, e, "Document", map[string]value.Value{
		"Sections":    value.RefSet(sec.UID()),
		"Figures":     value.RefSet(img.UID()),
		"Annotations": value.RefSet(note.UID()),
	})
	copyID, mapping, err := e.CopyComposite(0, doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := e.Get(copyID)
	if !cp.Get("Sections").ContainsRef(sec.UID()) || !cp.Get("Figures").ContainsRef(img.UID()) {
		t.Fatal("shared components not shared")
	}
	if cp.Get("Annotations").ContainsRef(note.UID()) {
		t.Fatal("exclusive annotation shared with the copy")
	}
	if _, ok := mapping[note.UID()]; !ok {
		t.Fatal("annotation not deep-copied")
	}
	checkClean(t, e)
}

func TestCopyCompositeWeakRefsCopiedAsIs(t *testing.T) {
	e := vehicleEngine(t)
	co := mustNew(t, e, "Company", nil)
	veh := mustNew(t, e, "Vehicle", map[string]value.Value{
		"Manufacturer": value.Ref(co.UID()),
	})
	copyID, _, err := e.CopyComposite(0, veh.UID())
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := e.Get(copyID)
	if r, _ := cp.Get("Manufacturer").AsRef(); r != co.UID() {
		t.Fatalf("weak ref not copied as-is: %v", cp.Get("Manufacturer"))
	}
	// The company gained no reverse refs (weak).
	coObj, _ := e.Get(co.UID())
	if coObj.HasAnyReverse() {
		t.Fatal("weak ref created a reverse ref")
	}
}

func TestCopyCompositeDeepHierarchy(t *testing.T) {
	cat := schema.NewCatalog()
	cat.DefineClass(schema.ClassDef{Name: "Part", Attributes: []schema.AttrSpec{
		schema.NewAttr("N", schema.IntDomain),
		schema.NewCompositeSetAttr("Subparts", "Part").WithDependent(false),
	}})
	e := NewEngine(cat)
	root := mustNew(t, e, "Part", map[string]value.Value{"N": value.Int(0)})
	level := []uid.UID{root.UID()}
	total := 1
	for d := 1; d <= 3; d++ {
		var next []uid.UID
		for _, p := range level {
			for i := 0; i < 2; i++ {
				c := mustNew(t, e, "Part", map[string]value.Value{"N": value.Int(int64(d))},
					ParentSpec{Parent: p, Attr: "Subparts"})
				next = append(next, c.UID())
				total++
			}
		}
		level = next
	}
	copyID, mapping, err := e.CopyComposite(0, root.UID())
	if err != nil {
		t.Fatal(err)
	}
	if len(mapping) != total {
		t.Fatalf("copied %d objects, want %d", len(mapping), total)
	}
	comps, _ := e.ComponentsOf(copyID, QueryOpts{})
	if len(comps) != total-1 {
		t.Fatalf("copy has %d components, want %d", len(comps), total-1)
	}
	// No copy references an original.
	origs := uid.NewSet(root.UID())
	for o := range mapping {
		origs.Add(o)
	}
	for _, c := range append([]uid.UID{copyID}, comps...) {
		o, _ := e.Get(c)
		for _, r := range o.Refs() {
			if origs.Contains(r) {
				t.Fatalf("copy %v references original %v", c, r)
			}
		}
	}
	checkClean(t, e)
}

func TestCopyCompositeErrors(t *testing.T) {
	e := vehicleEngine(t)
	if _, _, err := e.CopyComposite(0, uid.UID{Class: 1, Serial: 404}); err == nil {
		t.Fatal("copy of ghost succeeded")
	}
	e.SetLegacy(true)
	v := mustNew(t, e, "Vehicle", nil)
	if _, _, err := e.CopyComposite(0, v.UID()); err == nil {
		t.Fatal("copy in legacy mode succeeded")
	}
}
