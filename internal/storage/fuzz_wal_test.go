package storage

import (
	"bytes"
	"testing"

	"repro/internal/uid"
)

// FuzzDecodeWALPayload checks that decodeWALPayload never panics on
// arbitrary input and that accepted payloads survive a re-encode/decode
// round trip. (encode(decode(b)) == b does not hold for non-minimal
// uvarints, so the property is stated on the decoded record.)
func FuzzDecodeWALPayload(f *testing.F) {
	for _, rec := range walTestRecords() {
		f.Add(encodeWALPayload(rec))
	}
	f.Add(encodeWALPayload(WALRecord{Op: OpPut, UID: uid.UID{Class: 1<<32 - 1, Serial: 1<<63 - 1}, Data: nil}))
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0x80})                                                          // truncated uvarint
	f.Add([]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1}) // overlong uvarint
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeWALPayload(b)
		if err != nil {
			return
		}
		re := encodeWALPayload(rec)
		rec2, err := decodeWALPayload(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v (payload %x)", err, b)
		}
		if !recordsEqualF(rec, rec2) {
			t.Fatalf("round trip changed record: %+v vs %+v", rec, rec2)
		}
	})
}

func recordsEqualF(a, b WALRecord) bool {
	return a.Op == b.Op && a.Txn == b.Txn && a.UID == b.UID &&
		bytes.Equal(a.Data, b.Data)
}
