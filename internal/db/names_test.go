package db

import (
	"testing"
	"unsafe"

	"repro/internal/uid"
	"repro/internal/value"
)

// TestReopenedObjectsShareAttributeNames: recovery decodes each distinct
// attribute name once, so objects restored from the snapshot and from
// the log hold one copy of "Text" between them.
func TestReopenedObjectsShareAttributeNames(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	var ids []uid.UID
	mk := func(text string) {
		o, err := d.Make("Paragraph", map[string]value.Value{"Text": value.Str(text)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, o.UID())
	}
	mk("in the snapshot")
	mk("also in the snapshot")
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mk("in the log")
	d.Abandon()

	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	var data []*byte
	for _, id := range ids {
		o, err := d2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		o.Each(func(name string, _ value.Value) {
			if name == "Text" {
				data = append(data, unsafe.StringData(name))
			}
		})
	}
	if len(data) != len(ids) {
		t.Fatalf("%d of %d reopened objects hold Text", len(data), len(ids))
	}
	for i, p := range data[1:] {
		if p != data[0] {
			t.Errorf("object %d holds its own copy of the name Text", i+1)
		}
	}
}
