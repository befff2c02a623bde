package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/uid"
)

func u(c uint32, s uint64) uid.UID { return uid.UID{Class: uid.ClassID(c), Serial: s} }

func TestWALAppendReplay(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []WALRecord{
		{Op: OpPut, UID: u(1, 1), Data: []byte("hello")},
		{Op: OpPut, UID: u(1, 2), Data: []byte("")},
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

// TestWALRotate checks that a rotation moves every record appended so
// far to the predecessor file and that appends continue in a fresh log.
func TestWALRotate(t *testing.T) {
	dir := t.TempDir()
	path, prev := filepath.Join(dir, "wal.log"), filepath.Join(dir, "wal.prev")
	w, _ := OpenWAL(path)
	w.Append(WALRecord{Op: OpPut, UID: u(1, 1), Data: []byte("x")})
	if err := w.Rotate(prev); err != nil {
		t.Fatal(err)
	}
	w.Append(WALRecord{Op: OpPut, UID: u(2, 2), Data: []byte("y")})
	w.Close()
	for file, want := range map[string]uid.UID{prev: u(1, 1), path: u(2, 2)} {
		got, err := replayAll(file)
		if err != nil || len(got) != 1 || got[0].UID != want {
			t.Fatalf("%s after rotate: %+v, %v", filepath.Base(file), got, err)
		}
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

// TestSnapshotRoundTrip writes a snapshot and reads back its objects and
// the UID serial of its end frame.
func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot")
	f, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSnapshotWriter(f)
	for i := uint64(1); i <= 3; i++ {
		if err := sw.Put(WALRecord{Op: OpPut, UID: u(1, i), Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Finish(9); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var got []uid.UID
	last, err := ReplaySnapshot(path, func(r WALRecord) error {
		got = append(got, r.UID)
		return nil
	})
	if err != nil || last != 9 || len(got) != 3 {
		t.Fatalf("ReplaySnapshot = %v, last %d, %v", got, last, err)
	}
	if last, err := ReplaySnapshot(path+".missing", nil); err != nil || last != 0 {
		t.Fatalf("missing snapshot: last %d, %v", last, err)
	}
}

// TestSnapshotDamageIsFatal checks that a snapshot is replayed strictly:
// unlike a log's torn tail, a cut end frame or a flipped byte fails.
func TestSnapshotDamageIsFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot")
	f, _ := CreateFile(path)
	sw := NewSnapshotWriter(f)
	sw.Put(WALRecord{Op: OpPut, UID: u(1, 1), Data: []byte("payload")})
	sw.Finish(1)
	f.Close()
	good, _ := os.ReadFile(path)
	cut := good[:len(good)-3]
	flipped := bytes.Clone(good)
	flipped[12] ^= 0xFF
	// A snapshot cut exactly at a frame boundary lacks its end frame.
	noEnd := good[:8+len(encodeWALPayload(WALRecord{Op: OpPut, UID: u(1, 1), Data: []byte("payload")}))]
	for name, b := range map[string][]byte{"cut": cut, "flipped": flipped, "no-end": noEnd} {
		os.WriteFile(path, b, 0o644)
		if _, err := ReplaySnapshot(path, func(WALRecord) error { return nil }); !errors.Is(err, ErrCorruptWAL) {
			t.Errorf("%s snapshot: err %v, want ErrCorruptWAL", name, err)
		}
	}
}

// encodeWALPayload is rec's frame payload, as the log writes it.
func encodeWALPayload(rec WALRecord) []byte {
	frame, err := appendFrame(nil, rec)
	if err != nil {
		panic(err)
	}
	return frame[8:]
}

// TestAppendGroupMatchesPerRecordAppends: a group written in one write
// is byte for byte the log that appending its OpBegin, its records and
// its OpCommit one at a time writes, and counts the same frames.
func TestAppendGroupMatchesPerRecordAppends(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) (*WAL, *obs.Registry) {
		w, err := OpenWAL(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		w.SetObservability(reg)
		t.Cleanup(func() { w.Close() })
		return w, reg
	}
	group := []WALRecord{
		{Op: OpPut, Txn: 9, UID: uid.UID{Class: 2, Serial: 7}, Data: make([]byte, 300)},
		{Op: OpDelete, Txn: 9, UID: uid.UID{Class: 1, Serial: 2}},
		{Op: OpPut, Txn: 9, UID: uid.UID{Class: 3, Serial: 1 << 40}, Data: []byte("gamma")},
	}
	direct := WALRecord{Op: OpPut, UID: uid.UID{Class: 1, Serial: 1}, Data: []byte("alpha")}

	one, oneReg := open("one")
	for _, rec := range append(append([]WALRecord{direct, {Op: OpBegin, Txn: 9}}, group...), WALRecord{Op: OpCommit, Txn: 9}) {
		if err := one.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	grouped, groupedReg := open("grouped")
	if err := grouped.AppendGroup(0, direct); err != nil {
		t.Fatal(err)
	}
	if err := grouped.AppendGroup(9, group...); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(filepath.Join(dir, "one"))
	b, _ := os.ReadFile(filepath.Join(dir, "grouped"))
	if !bytes.Equal(a, b) {
		t.Fatalf("grouped log differs from per-record appends:\n%x\n%x", b, a)
	}
	for _, name := range []string{"wal_append_total", "wal_append_bytes_total"} {
		if got, want := groupedReg.Counter(name).Load(), oneReg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d grouped, %d per record", name, got, want)
		}
	}
	if n := groupedReg.Counter("wal_append_total").Load(); n != 6 {
		t.Errorf("wal_append_total = %d, want 6 frames", n)
	}

	// A record too big to frame fails its group before any of it is
	// written.
	huge := WALRecord{Op: OpPut, Txn: 10, UID: uid.UID{Class: 1, Serial: 3}, Data: make([]byte, MaxWALPayload)}
	if err := grouped.AppendGroup(10, group[0], huge); err == nil {
		t.Fatal("a group holding an oversized record was appended")
	}
	if c, _ := os.ReadFile(filepath.Join(dir, "grouped")); !bytes.Equal(c, b) {
		t.Fatalf("a failed group wrote %d bytes", len(c)-len(b))
	}
}
