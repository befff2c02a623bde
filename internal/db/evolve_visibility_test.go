package db

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestSchemaChangeVisibleWithItsRewrite: a schema change edits the
// catalog and rewrites the instances in one step, and a read outside any
// transaction sees both or neither, also while the change's commit is
// being made durable. A reader runs Integrity, which checks the objects
// against the catalog, in a loop during a rename, a drop and a
// make-composite of composite attributes on a SyncWAL database.
func TestSchemaChangeVisibleWithItsRewrite(t *testing.T) {
	d, err := Open(Options{Dir: t.TempDir(), SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.DefineClass(schema.ClassDef{Name: "Para", Attributes: []schema.AttrSpec{
		schema.NewAttr("Text", schema.StringDomain),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DefineClass(schema.ClassDef{Name: "Doc", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Paras", "Para").WithExclusive(false).WithDependent(false),
		schema.NewCompositeSetAttr("Notes", "Para").WithExclusive(false).WithDependent(false),
		schema.NewSetAttr("Refs", schema.ClassDomain("Para")),
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		doc, err := d.Make("Doc", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, attr := range []string{"Paras", "Notes"} {
			if _, err := d.Make("Para", map[string]value.Value{"Text": value.Str(attr)},
				core.ParentSpec{Parent: doc.UID(), Attr: attr}); err != nil {
				t.Fatal(err)
			}
		}
		p, err := d.Make("Para", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Set(doc.UID(), "Refs", value.RefSet(p.UID())); err != nil {
			t.Fatal(err)
		}
	}
	if v := d.Engine().Integrity(); len(v) != 0 {
		t.Fatalf("integrity before the changes: %v", v)
	}

	stop := make(chan struct{})
	var seen []core.TopologyViolation
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := d.Engine().Integrity(); len(v) != 0 && seen == nil {
				seen = v
			}
		}
	}()
	changes := []func() error{
		func() error { return d.RenameAttribute("Doc", "Paras", "Sections") },
		func() error { _, err := d.DropAttribute("Doc", "Notes"); return err },
		func() error { return d.MakeComposite("Doc", "Refs", false, false) },
	}
	for _, change := range changes {
		if err := change(); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if seen != nil {
		t.Fatalf("a read outside the schema change saw the catalog without its rewrite: %v", seen)
	}
	if v := d.Engine().Integrity(); len(v) != 0 {
		t.Fatalf("integrity after the changes: %v", v)
	}
}
