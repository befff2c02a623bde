package db

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/value"
)

// TestSystemEndToEnd drives one database through every subsystem the
// paper touches — schema + instances, composite semantics, queries,
// versions, authorization, transactions, schema evolution — then closes,
// reopens, and verifies the whole state survived.
func TestSystemEndToEnd(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// --- schema: a CAD-ish shop ---
	mustDef := func(def schema.ClassDef) {
		t.Helper()
		if _, err := d.DefineClass(def); err != nil {
			t.Fatal(err)
		}
	}
	mustDef(schema.ClassDef{Name: "Fastener", Attributes: []schema.AttrSpec{
		schema.NewAttr("Size", schema.IntDomain),
	}})
	mustDef(schema.ClassDef{Name: "Bracket", Versionable: true, Attributes: []schema.AttrSpec{
		schema.NewAttr("Material", schema.StringDomain),
		schema.NewCompositeSetAttr("Fasteners", "Fastener").WithExclusive(false).WithDependent(false),
	}})
	mustDef(schema.ClassDef{Name: "Rig", Attributes: []schema.AttrSpec{
		schema.NewAttr("Name", schema.StringDomain),
		schema.NewCompositeSetAttr("Brackets", "Bracket").WithExclusive(false).WithDependent(false),
	}})

	// --- instances built transactionally ---
	var rig uid.UID
	var brackets []uid.UID
	if err := d.Run(func(tx *txn.Txn) error {
		r, err := tx.New("Rig", map[string]value.Value{"Name": value.Str("rig-7")})
		if err != nil {
			return err
		}
		rig = r.UID()
		for i := 0; i < 3; i++ {
			b, err := tx.New("Bracket", map[string]value.Value{
				"Material": value.Str([]string{"steel", "alu", "steel"}[i]),
			}, core.ParentSpec{Parent: rig, Attr: "Brackets"})
			if err != nil {
				return err
			}
			brackets = append(brackets, b.UID())
			for j := 0; j <= i; j++ {
				if _, err := tx.New("Fastener", map[string]value.Value{
					"Size": value.Int(int64(4 + 2*j)),
				}, core.ParentSpec{Parent: b.UID(), Attr: "Fasteners"}); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// --- queries over the part hierarchy ---
	steel, err := query.Select(d.Engine(), "Bracket", false,
		query.Attr("Material").Eq(value.Str("steel")))
	if err != nil {
		t.Fatal(err)
	}
	if len(steel) != 2 {
		t.Fatalf("steel brackets = %v", steel)
	}
	bigFastened, err := query.Select(d.Engine(), "Rig", false,
		query.Attr("Brackets", "Fasteners", "Size").Ge(value.Int(8)))
	if err != nil {
		t.Fatal(err)
	}
	if len(bigFastened) != 1 || bigFastened[0] != rig {
		t.Fatalf("rigs with size>=8 fasteners = %v", bigFastened)
	}

	// --- authorization on the composite object ---
	d.Authz().SetObjectOwner(rig, "lead")
	if err := d.Authz().GrantObjectAs("lead", "tech", rig, authz.SR); err != nil {
		t.Fatal(err)
	}
	comps, _ := d.ComponentsOf(rig, core.QueryOpts{})
	for _, c := range comps {
		if ok, _ := d.Authz().Check("tech", c, authz.Read); !ok {
			t.Fatalf("tech cannot read component %v", c)
		}
	}

	// --- versions on a bracket design ---
	var gB, bv1 uid.UID
	err = d.Run(func(tx *txn.Txn) error {
		var bv0 uid.UID
		var err error
		gB, bv0, err = d.Versions().CreateVersionable(tx, "Bracket", map[string]value.Value{
			"Material": value.Str("titanium"),
		})
		if err != nil {
			return err
		}
		bv1, err = d.Versions().Derive(tx, bv0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Versions().SetDefault(gB, bv1); err != nil {
		t.Fatal(err)
	}

	// --- schema evolution: Rig.Brackets becomes dependent (I4), deferred ---
	if err := d.ChangeAttributeType("Rig", "Brackets", schema.ChangeToDependent, true); err != nil {
		t.Fatal(err)
	}

	// --- crash-free restart ---
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	// Queries still answer.
	steel2, err := query.Select(d2.Engine(), "Bracket", false,
		query.Attr("Material").Eq(value.Str("steel")))
	if err != nil || len(steel2) != 2 {
		t.Fatalf("steel after reopen = %v, %v", steel2, err)
	}
	// Versions still resolve (pinned default survived).
	if res, err := d2.Versions().Resolve(gB); err != nil || res != bv1 {
		t.Fatalf("resolve after reopen = %v, %v", res, err)
	}
	// Authorization still effective (grants persisted).
	if ok, _ := d2.Authz().Check("tech", brackets[0], authz.Read); !ok {
		t.Fatal("grant lost across reopen")
	}
	// The deferred I4 still applies: deleting the rig now cascades into
	// the brackets (dependent), whose pending flags are fixed lazily.
	deleted, err := d2.Delete(rig)
	if err != nil {
		t.Fatal(err)
	}
	// Fasteners are independent shared: they survive the cascade.
	// Deleted = rig + 3 brackets.
	want := 4
	if len(deleted) != want {
		t.Fatalf("deleted %d objects (%v), want %d", len(deleted), deleted, want)
	}
	if v := d2.Engine().Integrity(); len(v) != 0 {
		t.Fatalf("integrity after reopen+delete: %v", v)
	}
}

// TestDeferredEvolutionSurvivesReopen: operation logs and CC stamps are
// persisted, so a deferred change issued before a restart still applies
// to instances first accessed after it.
func TestDeferredEvolutionSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(Options{Dir: dir})
	defineDocSchema(t, d)
	doc, _ := d.Make("Document", nil)
	para, _ := d.Make("Paragraph", nil, core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err := d.ChangeAttributeType("Document", "Paras", schema.ChangeToIndependent, true); err != nil {
		t.Fatal(err)
	}
	// Close WITHOUT accessing the paragraph: its flags are still stale on
	// disk, carrying the old CC stamp.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	po, err := d2.Get(para.UID())
	if err != nil {
		t.Fatal(err)
	}
	if len(po.IX()) != 1 || len(po.DX()) != 0 {
		t.Fatalf("deferred change lost across restart: %+v", po.Reverse())
	}
	// Deletion semantics follow the migrated flags.
	deleted, err := d2.Delete(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || !d2.Engine().Exists(para.UID()) {
		t.Fatalf("deleted = %v; paragraph must survive after deferred I3", deleted)
	}
}

// TestLargeVolumeSnapshotRoundTrip pushes a few hundred kilobytes of
// objects through a checkpoint's snapshot and back.
func TestLargeVolumeSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	const n = 500
	ids := make([]uid.UID, n)
	for i := 0; i < n; i++ {
		p, err := d.Make("Paragraph", map[string]value.Value{
			"Text": value.Str(fmt.Sprintf("paragraph %04d ", i) + strings.Repeat("x", 700)),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = p.UID()
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i, id := range ids {
		o, err := d2.Get(id)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		want := fmt.Sprintf("paragraph %04d ", i) + strings.Repeat("x", 700)
		if s, _ := o.Get("Text").AsString(); s != want {
			t.Fatalf("object %d corrupted: %q", i, s)
		}
	}
}

// TestRecoveryIdempotent: recovering twice (reopen, crash again without
// checkpoint, reopen) converges to the same state.
func TestRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(Options{Dir: dir, SyncWAL: true})
	defineDocSchema(t, d)
	doc, _ := d.Make("Document", map[string]value.Value{"Title": value.Str("X")})
	d.Abandon() // crash 1, nothing checkpointed since schema

	d2, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	// Touch nothing; crash again. The WAL was NOT truncated (no
	// checkpoint), so recovery must replay the same records again.
	d2.Abandon()

	d3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer d3.Close()
	o, err := d3.Get(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := o.Get("Title").AsString(); s != "X" {
		t.Fatalf("Title = %q", s)
	}
	if errs := d3.Engine().Integrity(); len(errs) != 0 {
		t.Fatalf("integrity: %v", errs)
	}
	if _, err := d3.Make("Paragraph", nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexesPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(Options{Dir: dir})
	defineDocSchema(t, d)
	if err := d.CreateIndex("Document", "Title"); err != nil {
		t.Fatal(err)
	}
	doc, _ := d.Make("Document", map[string]value.Value{"Title": value.Str("indexed")})
	got, err := d.Indexes().Lookup("Document", "Title", value.Str("indexed"))
	if err != nil || len(got) != 1 {
		t.Fatalf("lookup before close = %v, %v", got, err)
	}
	d.Close()

	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err = d2.Indexes().Lookup("Document", "Title", value.Str("indexed"))
	if err != nil {
		t.Fatalf("index declaration lost: %v", err)
	}
	if len(got) != 1 || got[0] != doc.UID() {
		t.Fatalf("index contents wrong after rebuild: %v", got)
	}
	// Maintenance continues after reopen.
	doc2, _ := d2.Make("Document", map[string]value.Value{"Title": value.Str("indexed")})
	got, _ = d2.Indexes().Lookup("Document", "Title", value.Str("indexed"))
	if len(got) != 2 {
		t.Fatalf("post-reopen maintenance broken: %v", got)
	}
	_ = doc2
}
