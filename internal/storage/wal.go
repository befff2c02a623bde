package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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
	OpAbort  WALOp = 5 // transaction aborted; buffered records discard
	// OpMove records a physical relocation by the reclusterer: UID moves
	// into the segment named by Data, clustered next to Near. Seg carries
	// the segment's numeric ID at log time, but replay resolves the
	// segment BY NAME (recreating it if needed): move targets are usually
	// created after the last checkpoint, so their numeric IDs are not
	// stable across recovery. Moves are always auto-commit (Txn 0) — the
	// reclusterer holds the §7 unit-root X lock, so a move can never
	// interleave with an uncommitted transaction touching the same unit,
	// and replaying each move at its log position lands every object in
	// exactly one location no matter where a crash truncates the log.
	OpMove WALOp = 6
	// 7 is reserved: earlier releases used it for the prepare record of a
	// multi-log commit. Replay rejects it as an unknown op, so such a log
	// fails loudly instead of being misread.
)

// WALRecord is one logical change. Txn tags the record with the
// transaction that produced it (0 = auto-commit: the record is its own
// transaction and applies immediately on replay). For OpPut, Seg and
// Near carry the placement request so replay reproduces clustering
// decisions; OpDelete records Seg too (the segment the object lived in)
// while Near stays Nil — the clustering hint is only defined for the
// creating write.
type WALRecord struct {
	Op   WALOp
	Txn  uint64
	UID  uid.UID
	Seg  SegmentID
	Near uid.UID
	Data []byte
}

// ErrCorruptWAL reports a checksum failure in the middle of the log (a
// torn tail is tolerated silently).
var ErrCorruptWAL = errors.New("storage: corrupt WAL record")

// MaxWALPayload bounds the declared payload length of a frame. Object
// records are limited by MaxRecord (one slotted page), so any frame
// claiming more than this is garbage from a torn header, not data — and
// trusting the raw u32 would allocate up to 4 GiB during replay.
const MaxWALPayload = MaxRecord + 64

// WAL is an append-only, checksummed write-ahead log. Frame layout:
//
//	len(u32 LE) crc(u32 LE of payload) payload
//	payload := op(1) txn(uvarint) uid seg(uvarint) nearUID dataLen(uvarint) data
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
	p = binary.AppendUvarint(p, uint64(rec.Seg))
	p = appendUvarintUID(p, rec.Near)
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
	seg, n := binary.Uvarint(p)
	if n <= 0 {
		return rec, ErrCorruptWAL
	}
	rec.Seg = SegmentID(seg)
	p = p[n:]
	rec.Near, p, err = readUvarintUID(p)
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

// Append writes rec to the log. It does not sync; call Sync at commit
// boundaries.
func (w *WAL) Append(rec WALRecord) error {
	payload := encodeWALPayload(rec)
	if len(payload) > MaxWALPayload {
		return fmt.Errorf("storage: wal record too big (%d bytes)", len(payload))
	}
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	w.o.appends.Inc()
	w.o.appendBytes.Add(uint64(len(frame)))
	w.prof.Load().WALAppend(len(frame))
	if tr := w.o.tr; tr.Active() {
		tr.Point(0, "wal.append", obs.F("uid", rec.UID), obs.F("op", rec.Op), obs.F("bytes", len(frame)))
	}
	return nil
}

// Sync flushes the log to stable storage. The fsync is always timed —
// it is orders of magnitude above the instrumentation cost — and feeds
// the latency histogram and the slow log.
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
	if w.o.slow.Active() {
		w.o.slow.Observe("wal.fsync", dur, w.path)
	}
	if tr := w.o.tr; tr.Active() {
		tr.Point(0, "wal.fsync", obs.F("ns", int64(dur)))
	}
	return err
}

// Truncate discards all log contents (after a checkpoint).
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("storage: wal seek: %w", err)
	}
	return nil
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
// file. Crash-point tests and segment-aware tooling use the offsets to
// truncate the log between two specific records of one transaction.
func ReplayWALFrames(path string, fn func(rec WALRecord, start, end int64) error) error {
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
	var off int64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil // torn tail
			}
			return fmt.Errorf("storage: wal read: %w", err)
		}
		l := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if l > MaxWALPayload {
			// A garbage length gives no way to find the next frame
			// boundary, so nothing past this point is recoverable; treat
			// it like a torn tail rather than allocating l bytes.
			return nil
		}
		payload := make([]byte, l)
		if _, err := io.ReadFull(f, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil // torn tail
			}
			return fmt.Errorf("storage: wal read: %w", err)
		}
		frameEnd := off + 8 + int64(l)
		if crc32.ChecksumIEEE(payload) != crc {
			if frameEnd >= size {
				return nil // torn final record
			}
			return ErrCorruptWAL
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			if frameEnd >= size {
				return nil // torn final record
			}
			return err
		}
		if err := fn(rec, off, frameEnd); err != nil {
			return err
		}
		off = frameEnd
	}
}
