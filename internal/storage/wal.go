package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/uid"
)

// WALOp distinguishes write-ahead-log record kinds.
type WALOp byte

// WAL operations. OpBegin/OpCommit/OpAbort carry only a transaction ID
// and delimit transactional record groups: replay buffers the records of
// a transaction and applies them only when its OpCommit is seen, so a
// crash mid-transaction (including mid-cascade) never replays a partial
// effect.
const (
	OpPut    WALOp = 1 // upsert of an object record
	OpDelete WALOp = 2 // removal of an object
	OpBegin  WALOp = 3 // first record of a transaction (marker)
	OpCommit WALOp = 4 // transaction committed; buffered records apply
	OpAbort  WALOp = 5 // transaction aborted; buffered records discard (older logs only)
	// 6 and 7 are reserved: earlier releases used 6 for a reclusterer's
	// relocation of an object into another segment, and 7 for the prepare
	// record of a multi-log commit. Replay rejects both as unknown ops, so
	// such a log fails loudly instead of being misread.

	// OpSnapshotEnd is the last frame of a snapshot (see snapshot.go):
	// UID.Serial holds the highest UID serial issued when it was taken.
	OpSnapshotEnd WALOp = 8
)

// WALRecord is one logical change. Txn tags the record with the
// transaction that produced it (0 = an engine-direct write made outside
// any transaction, or a snapshot's object: the record applies
// immediately on replay). Data is an OpPut's encoded object.
type WALRecord struct {
	Op   WALOp
	Txn  uint64
	UID  uid.UID
	Data []byte
}

// ErrCorruptWAL reports a checksum failure in the middle of the log (a
// torn tail is tolerated silently), or any damage to a file replayed
// strictly.
var ErrCorruptWAL = errors.New("storage: corrupt WAL record")

// PageSize is the size of the 4 KB unit the benchmark's write-amplification
// figure multiplies page writes by. No page is written any more, so the
// figure reduces to log bytes; the constant stays because the benchmark
// module compiles against it.
const PageSize = 4096

// MaxWALPayload bounds the declared payload length of a frame. A frame
// claiming more is garbage from a torn header, not data — and trusting
// the raw u32 would allocate up to 4 GiB during replay — so Append
// refuses to write one.
const MaxWALPayload = 1 << 24

// WAL is an append-only, checksummed write-ahead log. Frame layout:
//
//	len(u32 LE) crc(u32 LE of payload) payload
//	payload := op(1) txn(uvarint) uid dataLen(uvarint) data
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
	o    walObs

	// prof is the ambient per-operation cost sink (AttachProf): appended
	// frames are attributed to it while attached.
	prof atomic.Pointer[obs.ProfCtx]
}

// AttachProf attributes WAL appends to p until detached (nil).
func (w *WAL) AttachProf(p *obs.ProfCtx) { w.prof.Store(p) }

// OpenWAL opens (creating if needed) the log at path, positioned for
// appending.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	w := &WAL{f: f, path: path}
	w.SetObservability(obs.NewRegistry())
	return w, nil
}

func appendUvarintUID(dst []byte, u uid.UID) []byte {
	dst = binary.AppendUvarint(dst, uint64(u.Class))
	return binary.AppendUvarint(dst, u.Serial)
}

func readUvarintUID(b []byte) (uid.UID, []byte, error) {
	c, n := binary.Uvarint(b)
	if n <= 0 {
		return uid.Nil, nil, ErrCorruptWAL
	}
	b = b[n:]
	s, n := binary.Uvarint(b)
	if n <= 0 {
		return uid.Nil, nil, ErrCorruptWAL
	}
	return uid.UID{Class: uid.ClassID(c), Serial: s}, b[n:], nil
}

func encodeWALPayload(rec WALRecord) []byte {
	p := make([]byte, 0, 24+len(rec.Data))
	p = append(p, byte(rec.Op))
	p = binary.AppendUvarint(p, rec.Txn)
	p = appendUvarintUID(p, rec.UID)
	p = binary.AppendUvarint(p, uint64(len(rec.Data)))
	return append(p, rec.Data...)
}

func decodeWALPayload(p []byte) (WALRecord, error) {
	var rec WALRecord
	if len(p) < 1 {
		return rec, ErrCorruptWAL
	}
	rec.Op = WALOp(p[0])
	p = p[1:]
	tx, n := binary.Uvarint(p)
	if n <= 0 {
		return rec, ErrCorruptWAL
	}
	rec.Txn = tx
	p = p[n:]
	var err error
	rec.UID, p, err = readUvarintUID(p)
	if err != nil {
		return rec, err
	}
	dl, n := binary.Uvarint(p)
	if n <= 0 {
		return rec, ErrCorruptWAL
	}
	p = p[n:]
	if uint64(len(p)) != dl {
		return rec, ErrCorruptWAL
	}
	rec.Data = append([]byte(nil), p...)
	return rec, nil
}

// appendFrame appends rec's frame to dst.
func appendFrame(dst []byte, rec WALRecord) ([]byte, error) {
	payload := encodeWALPayload(rec)
	if len(payload) > MaxWALPayload {
		return dst, fmt.Errorf("storage: wal record too big (%d bytes)", len(payload))
	}
	dst = slices.Grow(dst, 8+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// Append writes rec to the log. It does not sync; call Sync at commit
// boundaries.
func (w *WAL) Append(rec WALRecord) error {
	frame, err := appendFrame(nil, rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	w.o.appends.Inc()
	w.o.appendBytes.Add(uint64(len(frame)))
	w.prof.Load().WALAppend(len(frame))
	if tr := w.o.rec; tr.Active() {
		tr.Point(0, "wal.append", obs.F("uid", rec.UID), obs.F("op", rec.Op), obs.F("bytes", len(frame)))
	}
	return nil
}

// Sync flushes the log to stable storage. The fsync is always timed —
// it is orders of magnitude above the instrumentation cost — and feeds
// the latency histogram and an op record.
//
// Sync deliberately does not hold the append mutex across the fsync:
// appends issued while a sync is in flight must proceed (they belong to
// the next group-commit batch), and fsync concurrent with write on one
// file descriptor is safe — the sync covers at least every byte written
// before it was issued, which is exactly the batch it seals.
func (w *WAL) Sync() error {
	start := time.Now()
	err := w.f.Sync()
	dur := time.Since(start)
	w.o.fsyncs.Inc()
	w.o.fsyncNs.Observe(int64(dur))
	outcome := "ok"
	if err != nil {
		outcome = "err"
	}
	w.o.rec.Op("wal.fsync", w.path, start, dur, outcome, "")
	if tr := w.o.rec; tr.Active() {
		tr.Point(0, "wal.fsync", obs.F("ns", int64(dur)))
	}
	return err
}

// Rotate makes the log's contents durable, renames the file to prev,
// and continues at a fresh, empty file under the log's own name; the
// directory is fsynced before it returns, so a record appended afterwards
// and synced survives a crash. Rotate holds the append mutex throughout,
// so every record lands wholly in one of the two files; the caller keeps
// Sync from running concurrently.
func (w *WAL) Rotate(prev string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: wal rotate: %w", err)
	}
	if err := os.Rename(w.path, prev); err != nil {
		return fmt.Errorf("storage: wal rotate: %w", err)
	}
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: wal rotate: %w", err)
	}
	old := w.f
	w.f = f
	if err := old.Close(); err != nil {
		return fmt.Errorf("storage: wal rotate: %w", err)
	}
	return SyncPath(filepath.Dir(w.path))
}

// SyncPath fsyncs the file or directory at path; on a directory this
// makes the renames and file creations in it durable.
func SyncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// ReplayWAL reads the log at path, invoking fn for every intact record in
// order. Any malformed data at the tail of the log — an incomplete frame,
// an absurd length, a checksum mismatch, or a payload that fails to
// decode — ends replay without error, matching crash-at-append semantics:
// the final frame may have been half-written when power was lost. The
// same damage followed by more frames cannot come from a torn append, so
// mid-log corruption still returns ErrCorruptWAL.
func ReplayWAL(path string, fn func(WALRecord) error) error {
	return ReplayWALFrames(path, func(rec WALRecord, _, _ int64) error {
		return fn(rec)
	})
}

// ReplayWALFrames is ReplayWAL with frame byte offsets: fn additionally
// receives the [start, end) range each record's frame occupies in the
// file. Recovery uses the last end to cut a torn tail off before it
// appends again; crash-point tests use the offsets to truncate the log
// between two specific records of one transaction.
func ReplayWALFrames(path string, fn func(rec WALRecord, start, end int64) error) error {
	return replay(path, false, fn)
}

// ReplayStrict is ReplayWAL for a file that was complete and synced
// before anything could read it — a snapshot, or a log that was rotated
// out: damage anywhere, the tail included, returns ErrCorruptWAL.
func ReplayStrict(path string, fn func(WALRecord) error) error {
	return replay(path, true, func(rec WALRecord, _, _ int64) error {
		return fn(rec)
	})
}

// replay reads the frames of the file at path; a missing file holds
// none. Unless strict, damage that reaches the end of the file is a torn
// tail and ends replay without error.
func replay(path string, strict bool, fn func(rec WALRecord, start, end int64) error) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("storage: open wal for replay: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("storage: stat wal: %w", err)
	}
	size := st.Size()
	// torn reports whether damage ending at end is a tolerated torn tail.
	torn := func(end int64) error {
		if strict || end < size {
			return fmt.Errorf("%w in %s", ErrCorruptWAL, path)
		}
		return nil
	}
	r := bufio.NewReaderSize(f, 64<<10)
	var off int64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return torn(size) // torn header
			}
			return fmt.Errorf("storage: wal read: %w", err)
		}
		l := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if l > MaxWALPayload {
			// A garbage length gives no way to find the next frame
			// boundary, so nothing past this point is recoverable; treat
			// it like a torn tail rather than allocating l bytes.
			return torn(size)
		}
		payload := make([]byte, l)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return torn(size) // torn payload
			}
			return fmt.Errorf("storage: wal read: %w", err)
		}
		frameEnd := off + 8 + int64(l)
		if crc32.ChecksumIEEE(payload) != crc {
			return torn(frameEnd)
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			return torn(frameEnd)
		}
		if err := fn(rec, off, frameEnd); err != nil {
			return err
		}
		off = frameEnd
	}
}
