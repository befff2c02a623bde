package version

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

// cdEngine builds the §5.2 setting: versionable classes C and D, where C
// has a composite attribute A with domain D. The reference kind of A is
// configurable per test.
func cdEngine(t *testing.T, exclusive, dependent bool) (*core.Engine, *Manager) {
	t.Helper()
	cat := schema.NewCatalog()
	if _, err := cat.DefineClass(schema.ClassDef{Name: "D", Versionable: true, Attributes: []schema.AttrSpec{
		schema.NewAttr("Payload", schema.StringDomain),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DefineClass(schema.ClassDef{Name: "C", Versionable: true, Attributes: []schema.AttrSpec{
		schema.NewAttr("Name", schema.StringDomain),
		schema.NewCompositeAttr("A", "D").WithExclusive(exclusive).WithDependent(dependent),
	}}); err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(cat)
	return e, NewManager(e)
}

func TestCreateVersionable(t *testing.T) {
	_, m := cdEngine(t, true, false)
	g, v0, err := m.CreateVersionable(m.Engine(), "D", map[string]value.Value{"Payload": value.Str("p0")})
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsGeneric(g) || m.IsGeneric(v0) {
		t.Fatal("IsGeneric wrong")
	}
	if !m.IsVersion(v0) || m.IsVersion(g) {
		t.Fatal("IsVersion wrong")
	}
	gv, err := m.GenericOf(v0)
	if err != nil || gv != g {
		t.Fatalf("GenericOf = %v, %v", gv, err)
	}
	info, err := m.Info(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 1 || info.Versions[0] != v0 {
		t.Fatalf("Versions = %v", info.Versions)
	}
	if info.DerivedFrom[v0] != uid.Nil {
		t.Fatal("first version has a derivation parent")
	}
	// Attributes landed on the version instance.
	vo, _ := m.Engine().Get(v0)
	if s, _ := vo.Get("Payload").AsString(); s != "p0" {
		t.Fatalf("Payload = %v", vo.Get("Payload"))
	}
}

func TestCreateVersionableRequiresFlag(t *testing.T) {
	cat := schema.NewCatalog()
	cat.DefineClass(schema.ClassDef{Name: "Plain"})
	m := NewManager(core.NewEngine(cat))
	if _, _, err := m.CreateVersionable(m.Engine(), "Plain", nil); !errors.Is(err, ErrNotVersionable) {
		t.Fatalf("versionable of plain class: %v", err)
	}
	if _, _, err := m.CreateVersionable(m.Engine(), "Ghost", nil); !errors.Is(err, schema.ErrNoClass) {
		t.Fatalf("ghost class: %v", err)
	}
}

func TestDeriveBuildsHierarchy(t *testing.T) {
	_, m := cdEngine(t, true, false)
	g, v0, _ := m.CreateVersionable(m.Engine(), "D", map[string]value.Value{"Payload": value.Str("p0")})
	v1, err := m.Derive(m.Engine(), v0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.Derive(m.Engine(), v0)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := m.Derive(m.Engine(), v1)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := m.Info(g)
	if len(info.Versions) != 4 {
		t.Fatalf("Versions = %v", info.Versions)
	}
	if info.DerivedFrom[v1] != v0 || info.DerivedFrom[v2] != v0 || info.DerivedFrom[v3] != v1 {
		t.Fatalf("derivation hierarchy wrong: %v", info.DerivedFrom)
	}
	// Derived copies carry the source's attributes.
	vo, _ := m.Engine().Get(v3)
	if s, _ := vo.Get("Payload").AsString(); s != "p0" {
		t.Fatalf("derived Payload = %v", vo.Get("Payload"))
	}
	// Deriving from a non-version errors.
	if _, err := m.Derive(m.Engine(), g); !errors.Is(err, ErrNotVersion) {
		t.Fatalf("derive from generic: %v", err)
	}
}

func TestDefaultVersionTimestampAndPin(t *testing.T) {
	_, m := cdEngine(t, true, false)
	g, v0, _ := m.CreateVersionable(m.Engine(), "D", nil)
	v1, _ := m.Derive(m.Engine(), v0)
	// System default: newest by creation.
	d, err := m.DefaultVersion(g)
	if err != nil || d != v1 {
		t.Fatalf("default = %v, want %v", d, v1)
	}
	// User pin.
	if err := m.SetDefault(g, v0); err != nil {
		t.Fatal(err)
	}
	if d, _ := m.DefaultVersion(g); d != v0 {
		t.Fatalf("pinned default = %v", d)
	}
	// Resolve implements dynamic binding.
	if r, _ := m.Resolve(g); r != v0 {
		t.Fatalf("Resolve(generic) = %v", r)
	}
	if r, _ := m.Resolve(v1); r != v1 {
		t.Fatalf("Resolve(version) = %v", r)
	}
	// Clear the pin.
	if err := m.SetDefault(g, uid.Nil); err != nil {
		t.Fatal(err)
	}
	if d, _ := m.DefaultVersion(g); d != v1 {
		t.Fatalf("default after clear = %v", d)
	}
	// Pinning a foreign version fails.
	g2, _, _ := m.CreateVersionable(m.Engine(), "D", nil)
	if err := m.SetDefault(g2, v0); !errors.Is(err, ErrNotVersion) {
		t.Fatalf("foreign pin: %v", err)
	}
}

func TestFigure1IndependentExclusiveRewrite(t *testing.T) {
	// Figure 1: c-i holds an independent exclusive reference to version
	// instance d-k; deriving c-j rewrites the reference to the generic
	// instance g-d.
	_, m := cdEngine(t, true, false) // A independent exclusive
	gd, dk, _ := m.CreateVersionable(m.Engine(), "D", nil)
	_, ci, _ := m.CreateVersionable(m.Engine(), "C", nil)
	if err := m.Attach(m.Engine(), ci, "A", dk); err != nil {
		t.Fatal(err)
	}
	cj, err := m.Derive(m.Engine(), ci)
	if err != nil {
		t.Fatal(err)
	}
	cjObj, _ := m.Engine().Get(cj)
	r, ok := cjObj.Get("A").AsRef()
	if !ok || r != gd {
		t.Fatalf("derived A = %v, want generic %v", cjObj.Get("A"), gd)
	}
	// The original keeps its static reference.
	ciObj, _ := m.Engine().Get(ci)
	if r, _ := ciObj.Get("A").AsRef(); r != dk {
		t.Fatalf("source A = %v", ciObj.Get("A"))
	}
}

func TestFigure1DependentExclusiveNil(t *testing.T) {
	// Figure 1 variant: a dependent exclusive reference is set to Nil in
	// the new copy.
	_, m := cdEngine(t, true, true) // A dependent exclusive
	_, dk, _ := m.CreateVersionable(m.Engine(), "D", nil)
	_, ci, _ := m.CreateVersionable(m.Engine(), "C", nil)
	if err := m.Attach(m.Engine(), ci, "A", dk); err != nil {
		t.Fatal(err)
	}
	cj, err := m.Derive(m.Engine(), ci)
	if err != nil {
		t.Fatal(err)
	}
	cjObj, _ := m.Engine().Get(cj)
	if !cjObj.Get("A").IsNil() {
		t.Fatalf("derived dependent A = %v, want Nil", cjObj.Get("A"))
	}
}

func TestFigure1SharedCopiesAsIs(t *testing.T) {
	_, m := cdEngine(t, false, false) // A independent shared
	_, dk, _ := m.CreateVersionable(m.Engine(), "D", nil)
	_, ci, _ := m.CreateVersionable(m.Engine(), "C", nil)
	if err := m.Attach(m.Engine(), ci, "A", dk); err != nil {
		t.Fatal(err)
	}
	cj, err := m.Derive(m.Engine(), ci)
	if err != nil {
		t.Fatal(err)
	}
	cjObj, _ := m.Engine().Get(cj)
	if r, _ := cjObj.Get("A").AsRef(); r != dk {
		t.Fatalf("derived shared A = %v, want %v", cjObj.Get("A"), dk)
	}
	// d-k now has two shared reverse references (CV-2X allows it).
	dkObj, _ := m.Engine().Get(dk)
	if len(dkObj.IS()) != 2 {
		t.Fatalf("IS(d-k) = %v", dkObj.IS())
	}
}

func TestFigure2DifferentVersionsDifferentTargets(t *testing.T) {
	// Figure 2: version instances of g-c may reference different version
	// instances of g-d, each exclusively.
	_, m := cdEngine(t, true, false)
	_, dk, _ := m.CreateVersionable(m.Engine(), "D", nil)
	dj, err := m.Derive(m.Engine(), dk)
	if err != nil {
		t.Fatal(err)
	}
	_, ci, _ := m.CreateVersionable(m.Engine(), "C", nil)
	cj, _ := m.Derive(m.Engine(), ci)
	if err := m.Attach(m.Engine(), ci, "A", dk); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(m.Engine(), cj, "A", dj); err != nil {
		t.Fatal(err)
	}
	// But a second exclusive reference to the SAME version instance is
	// rejected (CV-2X sentence 1).
	ck, _ := m.Derive(m.Engine(), ci) // derive rewrites to generic, so clear it first
	ckObj, _ := m.Engine().Get(ck)
	if !ckObj.Get("A").IsNil() {
		if err := m.Detach(m.Engine(), ck, "A", mustRef(t, ckObj.Get("A"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Attach(m.Engine(), ck, "A", dk); !errors.Is(err, core.ErrTopologyViolation) {
		t.Fatalf("second exclusive ref to version instance: %v", err)
	}
}

func mustRef(t *testing.T, v value.Value) uid.UID {
	t.Helper()
	r, ok := v.AsRef()
	if !ok {
		t.Fatalf("not a ref: %v", v)
	}
	return r
}

func TestCV2XGenericMultipleExclusiveSameHierarchy(t *testing.T) {
	// CV-2X sentence 2: a generic instance may have several exclusive
	// references, but only from the same version-derivation hierarchy.
	_, m := cdEngine(t, true, false)
	gd, _, _ := m.CreateVersionable(m.Engine(), "D", nil)
	_, ci, _ := m.CreateVersionable(m.Engine(), "C", nil)
	cj, _ := m.Derive(m.Engine(), ci)

	if err := m.Attach(m.Engine(), ci, "A", gd); err != nil {
		t.Fatal(err)
	}
	// Same hierarchy (cj derived from ci): allowed.
	cjObj, _ := m.Engine().Get(cj)
	if r, ok := cjObj.Get("A").AsRef(); ok {
		m.Detach(m.Engine(), cj, "A", r)
	}
	if err := m.Attach(m.Engine(), cj, "A", gd); err != nil {
		t.Fatalf("same-hierarchy exclusive ref to generic rejected: %v", err)
	}
	// Different hierarchy: rejected.
	_, cx, _ := m.CreateVersionable(m.Engine(), "C", nil)
	if err := m.Attach(m.Engine(), cx, "A", gd); !errors.Is(err, ErrCV2X) {
		t.Fatalf("cross-hierarchy exclusive ref to generic: %v", err)
	}
}

func TestFigure3RefCounts(t *testing.T) {
	// Figure 3.b: versions a1.v0 and a1.v1 (of generic a1) reference
	// versions b1.v0 and b1.v1 (of generic b1). The reverse composite
	// generic reference from b1 to a1 carries ref-count 2; removing the
	// version-level references decrements it, and the entry disappears at
	// zero.
	_, m := cdEngine(t, true, false)
	b1, b1v0, _ := m.CreateVersionable(m.Engine(), "D", nil)
	b1v1, _ := m.Derive(m.Engine(), b1v0)
	a1, a1v0, _ := m.CreateVersionable(m.Engine(), "C", nil)
	a1v1, _ := m.Derive(m.Engine(), a1v0)

	if err := m.Attach(m.Engine(), a1v0, "A", b1v0); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(m.Engine(), a1v1, "A", b1v1); err != nil {
		t.Fatal(err)
	}
	// Generic b1 carries one generic-level entry keyed by generic a1 with
	// ref-count 2.
	b1Obj, _ := m.Engine().Get(b1)
	i := b1Obj.FindReverse(a1)
	if i < 0 {
		t.Fatalf("no reverse composite generic reference in b1: %v", b1Obj.Reverse())
	}
	if got := b1Obj.Reverse()[i].Count; got != 2 {
		t.Fatalf("ref-count = %d, want 2", got)
	}
	// parents-of on the generic b1 answers a1 even though all version
	// references are statically bound (the paper's closing observation on
	// Figure 3.b).
	parents, err := m.Engine().ParentsOf(b1, core.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(parents) != 1 || parents[0] != a1 {
		t.Fatalf("parents-of(b1) = %v, want [a1]", parents)
	}
	// Remove a1.v0 -> b1.v0: count drops to 1, entry survives.
	if err := m.Detach(m.Engine(), a1v0, "A", b1v0); err != nil {
		t.Fatal(err)
	}
	b1Obj, _ = m.Engine().Get(b1)
	i = b1Obj.FindReverse(a1)
	if i < 0 || b1Obj.Reverse()[i].Count != 1 {
		t.Fatalf("after first removal: %v", b1Obj.Reverse())
	}
	// Remove a1.v1 -> b1.v1: count hits zero, entry removed.
	if err := m.Detach(m.Engine(), a1v1, "A", b1v1); err != nil {
		t.Fatal(err)
	}
	b1Obj, _ = m.Engine().Get(b1)
	if b1Obj.FindReverse(a1) >= 0 {
		t.Fatalf("generic entry survived zero ref-count: %v", b1Obj.Reverse())
	}
}

func TestDeleteVersionCascadesAndLastVersionDeletesGeneric(t *testing.T) {
	// CV-4X: deleting a version cascades through dependent static refs;
	// deleting the last version deletes the generic.
	_, m := cdEngine(t, true, true) // dependent exclusive
	gd, dv, _ := m.CreateVersionable(m.Engine(), "D", nil)
	gc, cv, _ := m.CreateVersionable(m.Engine(), "C", nil)
	if err := m.Attach(m.Engine(), cv, "A", dv); err != nil {
		t.Fatal(err)
	}
	// Deleting c's only version: d's version dies too (dependent), and
	// both generics die (their last versions are gone).
	if err := m.DeleteVersion(m.Engine(), cv); err != nil {
		t.Fatal(err)
	}
	e := m.Engine()
	for _, id := range []uid.UID{cv, dv, gc, gd} {
		if e.Exists(id) {
			t.Fatalf("%v survived", id)
		}
	}
	if m.IsGeneric(gd) {
		t.Fatal("generic gd bookkeeping survived its last version")
	}
	if m.IsGeneric(gc) {
		t.Fatal("generic gc bookkeeping survived")
	}
	// d's generic should also be gone: its only version was cascade-
	// deleted.
	if m.IsVersion(dv) {
		t.Fatal("version bookkeeping for dv survived")
	}
}

func TestDeleteVersionKeepsGenericWhileVersionsRemain(t *testing.T) {
	_, m := cdEngine(t, true, false)
	g, v0, _ := m.CreateVersionable(m.Engine(), "D", nil)
	v1, _ := m.Derive(m.Engine(), v0)
	if err := m.DeleteVersion(m.Engine(), v0); err != nil {
		t.Fatal(err)
	}
	if !m.IsGeneric(g) || !m.IsVersion(v1) {
		t.Fatal("generic or surviving version lost")
	}
	info, _ := m.Info(g)
	if len(info.Versions) != 1 || info.Versions[0] != v1 {
		t.Fatalf("Versions = %v", info.Versions)
	}
	// Default falls to the survivor.
	if d, _ := m.DefaultVersion(g); d != v1 {
		t.Fatalf("default = %v", d)
	}
}

func TestDeleteGenericRecursesThroughDependentGenerics(t *testing.T) {
	// CV-4X: deleting g-c recursively deletes generics it references
	// exclusively and dependently (tracked via generic-level entries).
	_, m := cdEngine(t, true, true) // dependent exclusive
	gd, dv, _ := m.CreateVersionable(m.Engine(), "D", nil)
	gc, cv, _ := m.CreateVersionable(m.Engine(), "C", nil)
	if err := m.Attach(m.Engine(), cv, "A", dv); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteGeneric(m.Engine(), gc); err != nil {
		t.Fatal(err)
	}
	e := m.Engine()
	for _, id := range []uid.UID{gc, cv, gd, dv} {
		if e.Exists(id) {
			t.Fatalf("%v survived DeleteGeneric cascade", id)
		}
	}
}

func TestDynamicBindingReference(t *testing.T) {
	// An object may reference the generic (dynamic binding); resolution
	// returns the default version.
	_, m := cdEngine(t, true, false)
	gd, v0, _ := m.CreateVersionable(m.Engine(), "D", map[string]value.Value{"Payload": value.Str("zero")})
	_, ci, _ := m.CreateVersionable(m.Engine(), "C", nil)
	if err := m.Attach(m.Engine(), ci, "A", gd); err != nil {
		t.Fatal(err)
	}
	ciObj, _ := m.Engine().Get(ci)
	bound, _ := ciObj.Get("A").AsRef()
	resolved, err := m.Resolve(bound)
	if err != nil || resolved != v0 {
		t.Fatalf("resolved = %v, %v", resolved, err)
	}
	// Deriving a new version moves the dynamic binding automatically.
	v1, _ := m.Derive(m.Engine(), v0)
	resolved, _ = m.Resolve(bound)
	if resolved != v1 {
		t.Fatalf("resolved after derive = %v, want %v", resolved, v1)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	e, m := cdEngine(t, true, false)
	g, v0, _ := m.CreateVersionable(m.Engine(), "D", nil)
	v1, _ := m.Derive(m.Engine(), v0)
	m.SetDefault(g, v0)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(e)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if !m2.IsGeneric(g) || !m2.IsVersion(v0) || !m2.IsVersion(v1) {
		t.Fatal("bookkeeping lost in round trip")
	}
	if d, _ := m2.DefaultVersion(g); d != v0 {
		t.Fatalf("default lost: %v", d)
	}
	info, _ := m2.Info(g)
	if info.DerivedFrom[v1] != v0 {
		t.Fatal("derivation hierarchy lost")
	}
}

func TestHookCleansBookkeepingOnDirectEngineDelete(t *testing.T) {
	e, m := cdEngine(t, true, false)
	e.SetHook(m) // version manager as the engine hook
	g, v0, _ := m.CreateVersionable(e, "D", nil)
	v1, _ := m.Derive(e, v0)
	// Bypass DeleteVersion: delete the version straight through the engine.
	if _, err := e.Delete(v0); err != nil {
		t.Fatal(err)
	}
	if m.IsVersion(v0) {
		t.Fatal("bookkeeping survived direct engine delete")
	}
	info, _ := m.Info(g)
	if len(info.Versions) != 1 || info.Versions[0] != v1 {
		t.Fatalf("Versions = %v", info.Versions)
	}
	// DeleteVersion through the manager still deletes the last version's
	// generic with the hook installed.
	if err := m.DeleteVersion(e, v1); err != nil {
		t.Fatal(err)
	}
	if m.IsGeneric(g) || e.Exists(g) {
		t.Fatal("generic survived the deletion of its last version")
	}
}
