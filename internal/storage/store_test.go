package storage

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/uid"
)

func u(c uint32, s uint64) uid.UID { return uid.UID{Class: uid.ClassID(c), Serial: s} }

func newTestStore(t *testing.T, poolPages int) *Store {
	t.Helper()
	return NewStore(NewBufferPool(NewMemDevice(), poolPages))
}

func TestStorePutGetDelete(t *testing.T) {
	s := newTestStore(t, 16)
	seg, err := s.CreateSegment("main")
	if err != nil {
		t.Fatal(err)
	}
	id := u(1, 1)
	if err := s.Put(seg, id, []byte("v1"), uid.Nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(id)
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Update.
	if err := s.Put(seg, id, []byte("v2 longer"), uid.Nil); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get(id)
	if string(got) != "v2 longer" {
		t.Fatalf("after update: %q", got)
	}
	if !s.Has(id) || s.Len() != 1 {
		t.Fatal("Has/Len wrong")
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	if err := s.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestStoreSegmentErrors(t *testing.T) {
	s := newTestStore(t, 4)
	if _, err := s.CreateSegment("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSegment("a"); !errors.Is(err, ErrDupSegment) {
		t.Fatalf("dup segment: %v", err)
	}
	if err := s.Put(99, u(1, 1), []byte("x"), uid.Nil); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("unknown segment: %v", err)
	}
	if _, ok := s.SegmentByName("a"); !ok {
		t.Fatal("SegmentByName failed")
	}
	if _, ok := s.SegmentByName("b"); ok {
		t.Fatal("SegmentByName found ghost")
	}
}

func TestStoreClusteredPlacement(t *testing.T) {
	s := newTestStore(t, 16)
	seg, _ := s.CreateSegment("veh")
	parent := u(1, 1)
	if err := s.Put(seg, parent, []byte("parent"), uid.Nil); err != nil {
		t.Fatal(err)
	}
	// Force the segment onto a second page by filling the first.
	filler := bytes.Repeat([]byte("f"), 1200)
	for i := uint64(0); i < 3; i++ {
		if err := s.Put(seg, u(9, i+1), filler, uid.Nil); err != nil {
			t.Fatal(err)
		}
	}
	// A child placed near the parent must land on the parent's page.
	child := u(2, 1)
	if err := s.Put(seg, child, []byte("child"), parent); err != nil {
		t.Fatal(err)
	}
	pp, _ := s.PageOf(parent)
	cp, _ := s.PageOf(child)
	if pp != cp {
		t.Fatalf("child not clustered: parent page %d, child page %d", pp, cp)
	}
}

func TestStoreClusteringCrossSegmentIgnored(t *testing.T) {
	s := newTestStore(t, 16)
	segA, _ := s.CreateSegment("a")
	segB, _ := s.CreateSegment("b")
	parent := u(1, 1)
	s.Put(segA, parent, []byte("p"), uid.Nil)
	child := u(2, 1)
	// near hint refers to an object in another segment: must not fail, and
	// must not place the child in segment A's pages.
	if err := s.Put(segB, child, []byte("c"), parent); err != nil {
		t.Fatal(err)
	}
	pa, _ := s.PageOf(parent)
	pb, _ := s.PageOf(child)
	if pa == pb {
		t.Fatal("cross-segment clustering happened")
	}
	if sg, _ := s.SegmentOf(child); sg != segB {
		t.Fatal("child in wrong segment")
	}
}

func TestStoreUpdateRelocation(t *testing.T) {
	s := newTestStore(t, 16)
	seg, _ := s.CreateSegment("m")
	id := u(1, 1)
	s.Put(seg, id, []byte("small"), uid.Nil)
	// Fill the page so the grown record cannot stay.
	for i := uint64(0); i < 3; i++ {
		s.Put(seg, u(9, i+1), bytes.Repeat([]byte("f"), 1200), uid.Nil)
	}
	grown := bytes.Repeat([]byte("G"), 2000)
	if err := s.Put(seg, id, grown, uid.Nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(id)
	if err != nil || !bytes.Equal(got, grown) {
		t.Fatalf("after relocation: len=%d err=%v", len(got), err)
	}
	if sg, _ := s.SegmentOf(id); sg != seg {
		t.Fatal("relocation changed segment")
	}
}

func TestStorePutRoutesToCurrentSegment(t *testing.T) {
	// An update may name a segment other than the object's own: Put must
	// route the update to wherever the object currently lives, never
	// duplicate it.
	s := newTestStore(t, 8)
	segA, _ := s.CreateSegment("a")
	segB, _ := s.CreateSegment("b")
	id := u(1, 1)
	if err := s.Put(segA, id, []byte("x"), uid.Nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(segB, id, []byte("y"), uid.Nil); err != nil {
		t.Fatalf("update naming another segment: %v", err)
	}
	if sg, _ := s.SegmentOf(id); sg != segA {
		t.Fatalf("update moved object to segment %d, want %d", sg, segA)
	}
	if got, err := s.Get(id); err != nil || string(got) != "y" {
		t.Fatalf("got %q, %v", got, err)
	}
	if err := s.CheckPlacement(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreScanSegment(t *testing.T) {
	s := newTestStore(t, 16)
	segA, _ := s.CreateSegment("a")
	segB, _ := s.CreateSegment("b")
	for i := uint64(1); i <= 5; i++ {
		s.Put(segA, u(1, i), []byte{byte(i)}, uid.Nil)
	}
	s.Put(segB, u(2, 1), []byte("other"), uid.Nil)
	var seen []uid.UID
	err := s.ScanSegment(segA, func(id uid.UID, rec []byte) error {
		seen = append(seen, id)
		if rec[0] != byte(id.Serial) {
			t.Fatalf("wrong record for %v", id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("scanned %d objects, want 5", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if !seen[i-1].Less(seen[i]) {
			t.Fatal("scan not in UID order")
		}
	}
}

func TestStoreManyObjectsSpanPages(t *testing.T) {
	s := newTestStore(t, 8)
	seg, _ := s.CreateSegment("big")
	rec := bytes.Repeat([]byte("x"), 500)
	const n = 100
	for i := uint64(1); i <= n; i++ {
		if err := s.Put(seg, u(1, i), rec, uid.Nil); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := uint64(1); i <= n; i++ {
		got, err := s.Get(u(1, i))
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if s.Pool().Device().NumPages() < 10 {
		t.Fatalf("expected many pages, got %d", s.Pool().Device().NumPages())
	}
}

func TestStoreMetaRoundTrip(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 16)
	s := NewStore(bp)
	seg, _ := s.CreateSegment("main")
	for i := uint64(1); i <= 10; i++ {
		s.Put(seg, u(3, i), []byte{byte(i), byte(i)}, uid.Nil)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveMeta(&buf); err != nil {
		t.Fatal(err)
	}
	// Fresh store over the same device, restored from meta.
	s2 := NewStore(NewBufferPool(dev, 16))
	if err := s2.LoadMeta(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 10 {
		t.Fatalf("restored Len = %d", s2.Len())
	}
	for i := uint64(1); i <= 10; i++ {
		got, err := s2.Get(u(3, i))
		if err != nil || got[0] != byte(i) {
			t.Fatalf("restored get %d: %v", i, err)
		}
	}
	// Segment table restored too: new puts go into the same segment.
	seg2, ok := s2.SegmentByName("main")
	if !ok || seg2 != seg {
		t.Fatalf("segment not restored: %v %v", seg2, ok)
	}
	if err := s2.Put(seg2, u(3, 11), []byte("new"), uid.Nil); err != nil {
		t.Fatal(err)
	}
}

func TestWALAppendReplay(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []WALRecord{
		{Op: OpPut, UID: u(1, 1), Seg: 2, Near: u(1, 0), Data: []byte("hello")},
		{Op: OpPut, UID: u(1, 2), Seg: 2, Near: u(1, 1), Data: []byte("")},
		{Op: OpDelete, UID: u(1, 1)},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	var got []WALRecord
	if err := ReplayWAL(path, func(r WALRecord) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Op != recs[i].Op || got[i].UID != recs[i].UID ||
			got[i].Seg != recs[i].Seg || got[i].Near != recs[i].Near ||
			!bytes.Equal(got[i].Data, recs[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestWALTornTailTolerated(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	w, _ := OpenWAL(path)
	w.Append(WALRecord{Op: OpPut, UID: u(1, 1), Data: []byte("full record")})
	w.Append(WALRecord{Op: OpPut, UID: u(1, 2), Data: []byte("to be torn")})
	w.Close()
	// Simulate a crash mid-append: chop bytes off the tail.
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-5], 0o644)
	var got []WALRecord
	if err := ReplayWAL(path, func(r WALRecord) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	if len(got) != 1 || got[0].UID != u(1, 1) {
		t.Fatalf("replay after torn tail = %+v", got)
	}
}

func TestWALCorruptMiddleDetected(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	w, _ := OpenWAL(path)
	w.Append(WALRecord{Op: OpPut, UID: u(1, 1), Data: []byte("aaaaaaaaaa")})
	w.Append(WALRecord{Op: OpPut, UID: u(1, 2), Data: []byte("bbbbbbbbbb")})
	w.Close()
	b, _ := os.ReadFile(path)
	b[12] ^= 0xFF // flip a payload byte of the first record
	os.WriteFile(path, b, 0o644)
	err := ReplayWAL(path, func(WALRecord) error { return nil })
	if !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("corrupt middle: %v", err)
	}
}

func TestWALTruncate(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	w, _ := OpenWAL(path)
	w.Append(WALRecord{Op: OpPut, UID: u(1, 1), Data: []byte("x")})
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	w.Append(WALRecord{Op: OpPut, UID: u(2, 2), Data: []byte("y")})
	w.Close()
	var got []WALRecord
	ReplayWAL(path, func(r WALRecord) error { got = append(got, r); return nil })
	if len(got) != 1 || got[0].UID != u(2, 2) {
		t.Fatalf("after truncate: %+v", got)
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	if err := ReplayWAL(t.TempDir()+"/nope.log", func(WALRecord) error {
		t.Fatal("callback invoked")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
