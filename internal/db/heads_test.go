package db

import (
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

// TestCommittedObjectIsItsVersion: the engine holds each object once, as
// its committed version. After a commit, and after a reopen, Engine.Get
// and a snapshot begun then return the same record.
func TestCommittedObjectIsItsVersion(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DefineClass(schema.ClassDef{Name: "Part", Attributes: []schema.AttrSpec{
		schema.NewAttr("Name", schema.StringDomain),
		schema.NewCompositeSetAttr("Subparts", "Part"),
	}}); err != nil {
		t.Fatal(err)
	}
	root, err := d.Make("Part", map[string]value.Value{"Name": value.Str("root")})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := d.Make("Part", nil, core.ParentSpec{Parent: root.UID(), Attr: "Subparts"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Set(leaf.UID(), "Name", value.Str("leaf")); err != nil {
		t.Fatal(err)
	}
	same := func(when string, d *DB) {
		t.Helper()
		snap := d.BeginSnapshot()
		defer snap.Release()
		for _, id := range []uid.UID{root.UID(), leaf.UID()} {
			got, err := d.Engine().Get(id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := snap.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: Engine.Get(%v) and the snapshot's Get return different records", when, id)
			}
		}
	}
	same("after commit", d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	same("after reopen", d)
}
