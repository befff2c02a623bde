// Evolution: §4 — schema evolution under the extended composite-object
// model, on a product-catalog scenario.
//
// A catalog starts with the rigid 1987 semantics (dependent exclusive
// everywhere) and is migrated live — attribute-type changes I1–I4 with
// immediate and deferred application, the state-dependent changes D2/D3
// with their verification, and the cascading drop operations.
//
// Run: go run ./examples/evolution
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

func main() {
	d, err := db.Open(db.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	e := d.Engine()
	cat := d.Catalog()

	// Era 1: the 1987-style schema — manuals are dependent exclusive
	// components of products (the make-class defaults, §2.3).
	if _, err := d.DefineClass(schema.ClassDef{Name: "Manual", Attributes: []schema.AttrSpec{
		schema.NewAttr("Pages", schema.IntDomain),
	}}); err != nil {
		log.Fatal(err)
	}
	if _, err := d.DefineClass(schema.ClassDef{Name: "Product", Attributes: []schema.AttrSpec{
		schema.NewAttr("Name", schema.StringDomain),
		schema.NewCompositeSetAttr("Manuals", "Manual"),            // dependent exclusive (defaults)
		schema.NewSetAttr("SeeAlso", schema.ClassDomain("Manual")), // weak references
	}}); err != nil {
		log.Fatal(err)
	}

	mk := func(class string, attrs map[string]value.Value, parents ...core.ParentSpec) uid.UID {
		o, err := d.Make(class, attrs, parents...)
		if err != nil {
			log.Fatal(err)
		}
		return o.UID()
	}
	p1 := mk("Product", map[string]value.Value{"Name": value.Str("drill")})
	p2 := mk("Product", map[string]value.Value{"Name": value.Str("saw")})
	m1 := mk("Manual", map[string]value.Value{"Pages": value.Int(10)},
		core.ParentSpec{Parent: p1, Attr: "Manuals"})
	kind := func() schema.RefKind {
		a, _ := cat.Attribute("Product", "Manuals")
		return a.RefKind()
	}
	fmt.Printf("era 1: Product.Manuals is %s\n", kind())
	if err := d.Attach(p2, "Manuals", m1); err != nil {
		fmt.Printf("  sharing the manual with a second product: rejected (%v)\n\n", err != nil)
	}

	// I2 (immediate): exclusive -> shared. Both the spec and the X flags
	// in existing reverse references change.
	if err := d.ChangeAttributeType("Product", "Manuals", schema.ChangeToShared, false); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after I2 (immediate): Product.Manuals is %s\n", kind())
	if err := d.Attach(p2, "Manuals", m1); err != nil {
		log.Fatal(err)
	}
	mo, _ := d.Get(m1)
	fmt.Printf("  the manual now has %d shared parents\n\n", len(mo.DS()))

	// I3 (deferred): dependent -> independent. The spec changes now; the
	// D flags in instances are rewritten lazily via the operation log and
	// change counts (§4.3) when each object is next accessed.
	if err := d.ChangeAttributeType("Product", "Manuals", schema.ChangeToIndependent, true); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after I3 (deferred): Product.Manuals is %s\n", kind())
	fmt.Printf("  catalog CC = %d; the manual's stamp lags until accessed\n", cat.CurrentCC())
	mo, _ = d.Get(m1) // access applies pending changes
	fmt.Printf("  after access: manual reverse refs = %v (independent now)\n\n", mo.Reverse())

	// Deleting both products proves independence: the manual survives.
	d.Delete(p1)
	d.Delete(p2)
	fmt.Printf("both products deleted; manual survives: %v\n\n", e.Exists(m1))

	// D2 (state-dependent): the weak SeeAlso becomes a shared composite
	// reference — legal only if no referenced manual has an exclusive
	// parent. Verification is immediate by necessity (§4.3).
	p3 := mk("Product", map[string]value.Value{"Name": value.Str("lathe")})
	if err := d.Set(p3, "SeeAlso", value.RefSet(m1)); err != nil {
		log.Fatal(err)
	}
	if err := d.MakeComposite("Product", "SeeAlso", false, false); err != nil {
		log.Fatal(err)
	}
	a, _ := cat.Attribute("Product", "SeeAlso")
	fmt.Printf("after D2: Product.SeeAlso is %s\n", a.RefKind())
	mo, _ = d.Get(m1)
	fmt.Printf("  the manual gained a reverse reference: %v\n\n", mo.Reverse())

	// D3: shared -> exclusive. Rejected while the manual also hangs off
	// Manuals of another product; accepted once it has a single parent.
	p4 := mk("Product", nil)
	if err := d.Attach(p4, "Manuals", m1); err != nil {
		log.Fatal(err)
	}
	err = d.MakeExclusive("Product", "SeeAlso")
	fmt.Printf("D3 with two composite parents on the manual: rejected (%v)\n", err != nil)
	if err := d.Detach(p4, "Manuals", m1); err != nil {
		log.Fatal(err)
	}
	if err := d.MakeExclusive("Product", "SeeAlso"); err != nil {
		log.Fatal(err)
	}
	a, _ = cat.Attribute("Product", "SeeAlso")
	fmt.Printf("D3 after detaching: Product.SeeAlso is %s\n\n", a.RefKind())

	// Finally §4.1: dropping a composite attribute cascades per the
	// Deletion Rule — make SeeAlso dependent first (I4), then drop it.
	if err := d.ChangeAttributeType("Product", "SeeAlso", schema.ChangeToDependent, false); err != nil {
		log.Fatal(err)
	}
	deleted, err := d.DropAttribute("Product", "SeeAlso")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drop-attribute Product.SeeAlso deleted %d dependent component(s): %v\n",
		len(deleted), deleted)
	fmt.Printf("manual gone: %v\n", !e.Exists(m1))
	if v := e.Integrity(); len(v) != 0 {
		log.Fatalf("integrity: %v", v)
	}
	fmt.Println("\nintegrity clean after the whole migration")
}
