package schema

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/uid"
	"repro/internal/value"
)

// vehicleCatalog builds the paper's Example 1 schema (§2.3).
func vehicleCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	for _, n := range []string{"Company", "AutoBody", "AutoDrivetrain", "AutoTires"} {
		if _, err := c.DefineClass(ClassDef{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.DefineClass(ClassDef{
		Name: "Vehicle",
		Attributes: []AttrSpec{
			NewAttr("Id", IntDomain),
			NewAttr("Manufacturer", ClassDomain("Company")),
			NewCompositeAttr("Body", "AutoBody").WithDependent(false),
			NewCompositeAttr("Drivetrain", "AutoDrivetrain").WithDependent(false),
			NewCompositeSetAttr("Tires", "AutoTires").WithDependent(false),
			NewAttr("Color", StringDomain),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// documentCatalog builds the paper's Example 2 schema (§2.3).
func documentCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	for _, n := range []string{"Paragraph", "Image"} {
		if _, err := c.DefineClass(ClassDef{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.DefineClass(ClassDef{
		Name: "Section",
		Attributes: []AttrSpec{
			NewCompositeSetAttr("Content", "Paragraph").WithExclusive(false), // shared dependent
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineClass(ClassDef{
		Name: "Document",
		Attributes: []AttrSpec{
			NewAttr("Title", StringDomain),
			NewSetAttr("Authors", StringDomain),
			NewCompositeSetAttr("Sections", "Section").WithExclusive(false),                   // shared dependent
			NewCompositeSetAttr("Figures", "Image").WithExclusive(false).WithDependent(false), // shared independent
			NewCompositeSetAttr("Annotations", "Paragraph"),                                   // exclusive dependent
		},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefineClassErrors(t *testing.T) {
	c := NewCatalog()
	if _, err := c.DefineClass(ClassDef{Name: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.DefineClass(ClassDef{Name: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineClass(ClassDef{Name: "A"}); !errors.Is(err, ErrDupClass) {
		t.Fatalf("dup class: %v", err)
	}
	if _, err := c.DefineClass(ClassDef{Name: "B", Superclasses: []string{"Ghost"}}); !errors.Is(err, ErrNoClass) {
		t.Fatalf("missing super: %v", err)
	}
	if _, err := c.DefineClass(ClassDef{
		Name:       "C",
		Attributes: []AttrSpec{NewAttr("x", IntDomain), NewAttr("x", IntDomain)},
	}); !errors.Is(err, ErrDupAttr) {
		t.Fatalf("dup attr: %v", err)
	}
	if _, err := c.DefineClass(ClassDef{
		Name:       "D",
		Attributes: []AttrSpec{NewAttr("r", ClassDomain("Ghost"))},
	}); !errors.Is(err, ErrNoClass) {
		t.Fatalf("missing domain: %v", err)
	}
	// Composite attribute with primitive domain is malformed.
	if _, err := c.DefineClass(ClassDef{
		Name:       "E",
		Attributes: []AttrSpec{{Name: "x", Domain: IntDomain, Composite: true}},
	}); err == nil {
		t.Fatal("composite over primitive accepted")
	}
	// Self-referential domain is allowed (e.g. Part has subparts of Part).
	if _, err := c.DefineClass(ClassDef{
		Name:       "Part",
		Attributes: []AttrSpec{NewCompositeSetAttr("Subparts", "Part")},
	}); err != nil {
		t.Fatalf("self-referential class: %v", err)
	}
}

func TestClassLookup(t *testing.T) {
	c := vehicleCatalog(t)
	cl, err := c.Class("Vehicle")
	if err != nil {
		t.Fatal(err)
	}
	byID, err := c.ClassByID(cl.ID)
	if err != nil || byID.Name != "Vehicle" {
		t.Fatalf("ClassByID: %v %v", byID, err)
	}
	if _, err := c.Class("Ghost"); !errors.Is(err, ErrNoClass) {
		t.Fatalf("ghost class: %v", err)
	}
	if _, err := c.ClassByID(uid.ClassID(999)); !errors.Is(err, ErrNoClass) {
		t.Fatalf("ghost id: %v", err)
	}
	if !c.Has("Vehicle") || c.Has("Ghost") {
		t.Fatal("Has wrong")
	}
	names := c.ClassNames()
	if len(names) != 5 || names[0] != "AutoBody" {
		t.Fatalf("ClassNames = %v", names)
	}
}

func TestRefKinds(t *testing.T) {
	c := documentCatalog(t)
	cases := []struct {
		class, attr string
		want        RefKind
	}{
		{"Document", "Title", NonRef},
		{"Document", "Sections", DependentShared},
		{"Document", "Figures", IndependentShared},
		{"Document", "Annotations", DependentExclusive},
		{"Section", "Content", DependentShared},
	}
	for _, cs := range cases {
		a, err := c.Attribute(cs.class, cs.attr)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.RefKind(); got != cs.want {
			t.Errorf("%s.%s RefKind = %v, want %v", cs.class, cs.attr, got, cs.want)
		}
	}
	// Vehicle's Body is independent exclusive.
	vc := vehicleCatalog(t)
	a, _ := vc.Attribute("Vehicle", "Body")
	if a.RefKind() != IndependentExclusive {
		t.Fatalf("Vehicle.Body = %v", a.RefKind())
	}
	if a.RefKind().String() != "independent exclusive composite" {
		t.Fatalf("String = %q", a.RefKind())
	}
	// Manufacturer is a weak reference.
	a, _ = vc.Attribute("Vehicle", "Manufacturer")
	if a.RefKind() != WeakRef {
		t.Fatalf("Manufacturer = %v", a.RefKind())
	}
}

func TestInheritanceAndConflictResolution(t *testing.T) {
	c := NewCatalog()
	c.DefineClass(ClassDef{Name: "A", Attributes: []AttrSpec{
		NewAttr("x", IntDomain), NewAttr("shared", IntDomain),
	}})
	c.DefineClass(ClassDef{Name: "B", Attributes: []AttrSpec{
		NewAttr("y", IntDomain), NewAttr("shared", StringDomain),
	}})
	c.DefineClass(ClassDef{Name: "C", Superclasses: []string{"A", "B"}, Attributes: []AttrSpec{
		NewAttr("z", IntDomain),
	}})
	attrs, err := c.Attributes("C")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AttrSpec{}
	var order []string
	for _, a := range attrs {
		byName[a.Name] = a
		order = append(order, a.Name)
	}
	// Own first, then A's, then B's non-conflicting.
	if !reflect.DeepEqual(order, []string{"z", "x", "shared", "y"}) {
		t.Fatalf("attribute order = %v", order)
	}
	// Conflict resolution: "shared" comes from A (first superclass).
	if byName["shared"].Domain != IntDomain {
		t.Fatalf("conflict resolved to %v, want A's int", byName["shared"].Domain)
	}
	// Own attribute shadows inherited.
	c.DefineClass(ClassDef{Name: "D", Superclasses: []string{"A"}, Attributes: []AttrSpec{
		NewAttr("x", StringDomain),
	}})
	a, _ := c.Attribute("D", "x")
	if a.Domain != StringDomain {
		t.Fatalf("own attr did not shadow: %v", a.Domain)
	}
}

// TestAttributeMatchesAttributes: Attribute resolves every (class,
// attribute) pair to exactly the spec Attributes lists for the class —
// own attributes shadowing inherited ones, earlier superclasses shadowing
// later ones, through a diamond — and a missing attribute is ErrNoAttr.
func TestAttributeMatchesAttributes(t *testing.T) {
	c := NewCatalog()
	for _, def := range []ClassDef{
		{Name: "Part", Attributes: []AttrSpec{NewAttr("Tag", IntDomain)}},
		{Name: "A", Attributes: []AttrSpec{
			NewAttr("x", IntDomain), NewAttr("shared", IntDomain),
			NewCompositeSetAttr("Parts", "Part"),
		}},
		{Name: "B", Attributes: []AttrSpec{
			NewAttr("y", IntDomain), NewAttr("shared", StringDomain),
			NewCompositeSetAttr("Parts", "Part").WithExclusive(false),
		}},
		{Name: "C", Superclasses: []string{"A", "B"}, Attributes: []AttrSpec{NewAttr("z", IntDomain)}},
		{Name: "D", Superclasses: []string{"B", "A"}, Attributes: []AttrSpec{NewAttr("x", StringDomain)}},
		{Name: "E", Superclasses: []string{"D", "C"}, Attributes: []AttrSpec{
			NewCompositeAttr("Parts", "Part").WithDependent(false),
		}},
	} {
		if _, err := c.DefineClass(def); err != nil {
			t.Fatal(err)
		}
	}
	pairs := 0
	for _, class := range []string{"Part", "A", "B", "C", "D", "E"} {
		attrs, err := c.Attributes(class)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range attrs {
			got, err := c.Attribute(class, want.Name)
			if err != nil {
				t.Fatalf("Attribute(%s, %s): %v", class, want.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Attribute(%s, %s) = %+v, Attributes lists %+v", class, want.Name, got, want)
			}
			pairs++
		}
		if _, err := c.Attribute(class, "missing"); !errors.Is(err, ErrNoAttr) {
			t.Fatalf("Attribute(%s, missing) = %v, want ErrNoAttr", class, err)
		}
	}
	if pairs != 1+3+3+5+4+5 {
		t.Fatalf("compared %d (class, attribute) pairs", pairs)
	}
	if _, err := c.Attribute("Nope", "x"); !errors.Is(err, ErrNoClass) {
		t.Fatalf("Attribute of a missing class = %v, want ErrNoClass", err)
	}
}

func TestIsAAndSubclasses(t *testing.T) {
	c := NewCatalog()
	c.DefineClass(ClassDef{Name: "Top"})
	c.DefineClass(ClassDef{Name: "Mid", Superclasses: []string{"Top"}})
	c.DefineClass(ClassDef{Name: "Leaf", Superclasses: []string{"Mid"}})
	c.DefineClass(ClassDef{Name: "Other"})
	if !c.IsA("Leaf", "Top") || !c.IsA("Leaf", "Leaf") || c.IsA("Top", "Leaf") || c.IsA("Other", "Top") {
		t.Fatal("IsA wrong")
	}
	if got := c.Subclasses("Top"); !reflect.DeepEqual(got, []string{"Mid"}) {
		t.Fatalf("Subclasses = %v", got)
	}
	if got := c.AllSubclasses("Top"); !reflect.DeepEqual(got, []string{"Leaf", "Mid", "Top"}) {
		t.Fatalf("AllSubclasses = %v", got)
	}
}

func TestPredicates(t *testing.T) {
	c := documentCatalog(t)
	mustBool := func(got bool, err error, want bool, what string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
	b, err := c.Compositep("Document")
	mustBool(b, err, true, "compositep Document")
	b, err = c.Compositep("Document", "Title")
	mustBool(b, err, false, "compositep Document Title")
	b, err = c.Compositep("Document", "Sections")
	mustBool(b, err, true, "compositep Document Sections")
	b, err = c.ExclusiveCompositep("Document", "Annotations")
	mustBool(b, err, true, "exclusive-compositep Annotations")
	b, err = c.ExclusiveCompositep("Document", "Sections")
	mustBool(b, err, false, "exclusive-compositep Sections")
	b, err = c.SharedCompositep("Document", "Sections")
	mustBool(b, err, true, "shared-compositep Sections")
	b, err = c.DependentCompositep("Document", "Figures")
	mustBool(b, err, false, "dependent-compositep Figures")
	b, err = c.DependentCompositep("Document", "Sections")
	mustBool(b, err, true, "dependent-compositep Sections")
	// Paragraph has no attributes at all.
	b, err = c.Compositep("Paragraph")
	mustBool(b, err, false, "compositep Paragraph")
	if _, err := c.Compositep("Ghost"); !errors.Is(err, ErrNoClass) {
		t.Fatalf("ghost class: %v", err)
	}
	if _, err := c.Compositep("Document", "Ghost"); !errors.Is(err, ErrNoAttr) {
		t.Fatalf("ghost attr: %v", err)
	}
}

func TestCompositeHierarchy(t *testing.T) {
	c := documentCatalog(t)
	h, err := c.CompositeHierarchy("Document")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"Section": true, "Image": true, "Paragraph": true}
	if len(h) != len(want) {
		t.Fatalf("hierarchy = %v", h)
	}
	for _, n := range h {
		if !want[n] {
			t.Fatalf("unexpected component class %q in %v", n, h)
		}
	}
	// A class with no composite attributes has an empty hierarchy.
	h, err = c.CompositeHierarchy("Paragraph")
	if err != nil || len(h) != 0 {
		t.Fatalf("Paragraph hierarchy = %v, %v", h, err)
	}
	// Recursive hierarchies terminate.
	c2 := NewCatalog()
	c2.DefineClass(ClassDef{Name: "Part", Attributes: []AttrSpec{
		NewCompositeSetAttr("Subparts", "Part"),
	}})
	h, err = c2.CompositeHierarchy("Part")
	if err != nil || !reflect.DeepEqual(h, []string{"Part"}) {
		t.Fatalf("recursive hierarchy = %v, %v", h, err)
	}
}

func TestCompositeHierarchyIncludesSubclasses(t *testing.T) {
	c := NewCatalog()
	c.DefineClass(ClassDef{Name: "Wheel"})
	c.DefineClass(ClassDef{Name: "AlloyWheel", Superclasses: []string{"Wheel"}})
	c.DefineClass(ClassDef{Name: "Car", Attributes: []AttrSpec{
		NewCompositeSetAttr("Wheels", "Wheel"),
	}})
	h, err := c.CompositeHierarchy("Car")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, n := range h {
		found[n] = true
	}
	if !found["Wheel"] || !found["AlloyWheel"] {
		t.Fatalf("hierarchy missing subclass: %v", h)
	}
}

func TestValidateValue(t *testing.T) {
	c := vehicleCatalog(t)
	body, _ := c.Class("AutoBody")
	tires, _ := c.Class("AutoTires")
	bodyRef := value.Ref(uid.UID{Class: body.ID, Serial: 1})
	tireRef := value.Ref(uid.UID{Class: tires.ID, Serial: 1})

	if err := c.ValidateValue("Vehicle", "Id", value.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateValue("Vehicle", "Id", value.Str("x")); !errors.Is(err, ErrDomainMismatch) {
		t.Fatalf("wrong prim kind: %v", err)
	}
	if err := c.ValidateValue("Vehicle", "Body", bodyRef); err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateValue("Vehicle", "Body", tireRef); !errors.Is(err, ErrDomainMismatch) {
		t.Fatalf("wrong ref class: %v", err)
	}
	if err := c.ValidateValue("Vehicle", "Body", value.Int(2)); !errors.Is(err, ErrDomainMismatch) {
		t.Fatalf("non-ref for class domain: %v", err)
	}
	// Set-valued attribute needs a collection of properly-typed refs.
	if err := c.ValidateValue("Vehicle", "Tires", value.SetOf(tireRef)); err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateValue("Vehicle", "Tires", tireRef); !errors.Is(err, ErrDomainMismatch) {
		t.Fatalf("scalar for set-of: %v", err)
	}
	if err := c.ValidateValue("Vehicle", "Tires", value.SetOf(bodyRef)); !errors.Is(err, ErrDomainMismatch) {
		t.Fatalf("wrong element class: %v", err)
	}
	// Single-valued attribute rejects collections.
	if err := c.ValidateValue("Vehicle", "Body", value.SetOf(bodyRef)); !errors.Is(err, ErrDomainMismatch) {
		t.Fatalf("collection for scalar: %v", err)
	}
	// Nil always passes.
	if err := c.ValidateValue("Vehicle", "Body", value.Nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateValueSubclassAllowed(t *testing.T) {
	c := NewCatalog()
	c.DefineClass(ClassDef{Name: "Wheel"})
	c.DefineClass(ClassDef{Name: "AlloyWheel", Superclasses: []string{"Wheel"}})
	c.DefineClass(ClassDef{Name: "Car", Attributes: []AttrSpec{NewAttr("W", ClassDomain("Wheel"))}})
	alloy, _ := c.Class("AlloyWheel")
	if err := c.ValidateValue("Car", "W", value.Ref(uid.UID{Class: alloy.ID, Serial: 1})); err != nil {
		t.Fatalf("subclass instance rejected: %v", err)
	}
}
