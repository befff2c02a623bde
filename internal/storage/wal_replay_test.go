package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/uid"
)

func walTestRecords() []WALRecord {
	return []WALRecord{
		{Op: OpPut, UID: uid.UID{Class: 1, Serial: 1}, Data: []byte("alpha")},
		{Op: OpPut, UID: uid.UID{Class: 1, Serial: 2}, Data: []byte("beta")},
		{Op: OpDelete, UID: uid.UID{Class: 1, Serial: 1}},
		{Op: OpBegin, Txn: 9},
		{Op: OpPut, Txn: 9, UID: uid.UID{Class: 2, Serial: 7}, Data: make([]byte, 300)},
		{Op: OpDelete, Txn: 9, UID: uid.UID{Class: 1, Serial: 2}},
		{Op: OpCommit, Txn: 9},
		{Op: OpBegin, Txn: 10},
		{Op: OpAbort, Txn: 10},
	}
}

func writeWALFile(t *testing.T, recs []WALRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func replayAll(path string) ([]WALRecord, error) {
	var got []WALRecord
	err := ReplayWAL(path, func(rec WALRecord) error {
		got = append(got, rec)
		return nil
	})
	return got, err
}

func recordsEqual(a, b WALRecord) bool {
	if a.Op != b.Op || a.Txn != b.Txn || a.UID != b.UID {
		return false
	}
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

func TestReplayWALRoundTrip(t *testing.T) {
	recs := walTestRecords()
	got, err := replayAll(writeWALFile(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !recordsEqual(got[i], recs[i]) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

// TestReplayWALTruncatedAtEveryOffset truncates a valid log at every byte
// offset and asserts replay never errors and yields exactly the records
// whose frames are fully contained in the prefix — crash-at-append can
// cut the file anywhere.
func TestReplayWALTruncatedAtEveryOffset(t *testing.T) {
	recs := walTestRecords()
	path := writeWALFile(t, recs)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries: offsets at which a whole record ends.
	bounds := []int{0}
	off := 0
	for _, rec := range recs {
		off += 8 + len(encodeWALPayload(rec))
		bounds = append(bounds, off)
	}
	if off != len(full) {
		t.Fatalf("frame arithmetic off: %d != file size %d", off, len(full))
	}
	dir := t.TempDir()
	for cut := 0; cut <= len(full); cut++ {
		p := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantN := 0
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= cut {
				wantN = i
			}
		}
		got, err := replayAll(p)
		if err != nil {
			t.Fatalf("cut at %d: replay error: %v", cut, err)
		}
		if len(got) != wantN {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(got), wantN)
		}
		for i := 0; i < wantN; i++ {
			if !recordsEqual(got[i], recs[i]) {
				t.Fatalf("cut at %d: record %d mismatch", cut, i)
			}
		}
	}
}

// TestReplayWALTornFinalGarbage corrupts bytes inside the final frame
// (CRC now wrong, length still sane) — a torn final record must end
// replay cleanly with the preceding records intact.
func TestReplayWALTornFinalGarbage(t *testing.T) {
	recs := walTestRecords()
	path := writeWALFile(t, recs)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := 0
	for _, rec := range recs[:len(recs)-1] {
		lastStart += 8 + len(encodeWALPayload(rec))
	}
	mut := append([]byte(nil), full...)
	for i := lastStart + 8; i < len(mut); i++ {
		mut[i] ^= 0xff
	}
	p := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(p, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := replayAll(p)
	if err != nil {
		t.Fatalf("torn final record: %v", err)
	}
	if len(got) != len(recs)-1 {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs)-1)
	}
}

// TestReplayWALGarbageLengthTail appends a frame header with an absurd
// length: replay must stop cleanly, not allocate gigabytes.
func TestReplayWALGarbageLengthTail(t *testing.T) {
	recs := walTestRecords()
	path := writeWALFile(t, recs)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], 0xfffffff0)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := replayAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
}

// TestReplayWALMidLogCorruption flips a payload byte in a non-final frame:
// that cannot be a torn append, so replay must fail loudly.
func TestReplayWALMidLogCorruption(t *testing.T) {
	recs := walTestRecords()
	path := writeWALFile(t, recs)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full[8] ^= 0xff // first byte of the first payload
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayAll(path); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("mid-log corruption: got %v, want ErrCorruptWAL", err)
	}
}

// TestReplayWALMidLogDecodeFailure builds a CRC-valid frame whose payload
// does not decode, followed by a good frame: replay must error rather
// than skip it.
func TestReplayWALMidLogDecodeFailure(t *testing.T) {
	bad := []byte{0x7f} // unknown op, then truncated
	frame := make([]byte, 8, 8+len(bad))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(bad)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(bad))
	frame = append(frame, bad...)
	good := encodeWALPayload(WALRecord{Op: OpPut, UID: uid.UID{Class: 1, Serial: 1}, Data: []byte("x")})
	gf := make([]byte, 8, 8+len(good))
	binary.LittleEndian.PutUint32(gf[0:], uint32(len(good)))
	binary.LittleEndian.PutUint32(gf[4:], crc32.ChecksumIEEE(good))
	gf = append(gf, good...)

	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, append(frame, gf...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayAll(path); err == nil {
		t.Fatal("mid-log decode failure: replay succeeded, want error")
	}

	// The same bad frame at the tail is tolerated.
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := replayAll(path)
	if err != nil || len(got) != 0 {
		t.Fatalf("bad tail frame: got %d records, err %v", len(got), err)
	}
}

func TestWALAppendRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(WALRecord{Op: OpPut, Data: make([]byte, MaxWALPayload+1)}); err == nil {
		t.Fatal("oversized append succeeded, want error")
	}
}
