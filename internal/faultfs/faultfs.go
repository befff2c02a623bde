// Package faultfs creates files with seeded, deterministic fault
// injection for crash and recovery testing: the database writes its
// snapshots through them (db.Options.SnapshotFile).
//
// A file models the volatile/durable split of a real disk stack: a write
// lands in the real file (what the running process reads back, like the
// OS page cache) and in a pending image (what the medium will hold after
// the next fsync). Normally the two agree; an injected fault makes them
// diverge — a short write or torn page persists mangled bytes while the
// application keeps seeing clean data, and a failed or ignored fsync
// keeps everything volatile. Crash rewrites each file with its durable
// image, so reads afterwards observe exactly what a machine would find
// on disk after power loss; CrashAt rewinds further, freezing the image
// as of an arbitrary earlier synced point.
//
// Faults are scheduled either at exactly the Nth operation of their class
// (writes for the write faults and Stall, syncs for the sync faults) or
// probabilistically with a seeded RNG, so every run is reproducible from
// (seed, fault plan).
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"

	"repro/internal/storage"
)

// Kind enumerates injectable faults.
type Kind uint8

// Fault kinds. Write faults and Stall fire on Write, sync faults on
// Sync.
const (
	// ShortWrite persists only a prefix of the write while reporting
	// success; the application's read-back still sees the full write.
	ShortWrite Kind = iota + 1
	// TornPage persists an interleaving of old and new 512-byte sectors
	// of the written range while reporting success.
	TornPage
	// WriteErr writes a prefix and returns an error; the read-back also
	// sees the partial write (contents after a failed write are undefined).
	WriteErr
	// SyncErr fails the fsync; nothing reaches the durable image.
	SyncErr
	// SyncLost reports fsync success without making anything durable (a
	// lying disk).
	SyncLost
	// Stall holds the write until Resume is called, then completes it
	// cleanly: a slow disk, for tests that act while a writer is
	// mid-file. Stalled reports each held write.
	Stall
)

func (k Kind) String() string {
	switch k {
	case ShortWrite:
		return "short-write"
	case TornPage:
		return "torn-page"
	case WriteErr:
		return "write-err"
	case SyncErr:
		return "sync-err"
	case SyncLost:
		return "sync-lost"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ErrInjected is wrapped by every error a file fabricates.
var ErrInjected = errors.New("faultfs: injected fault")

// Fault schedules one injection. At is the 1-based index within the
// kind's operation class (the 3rd write, the 1st sync, ...), counted over
// every file of the FS; Prob fires the fault on any matching op with the
// given probability using the FS's seeded RNG. A fault with At == 0 and
// Prob == 0 never fires.
type Fault struct {
	Kind Kind
	At   uint64
	Prob float64
}

// Stats counts file activity.
type Stats struct {
	Writes uint64
	Syncs  uint64
	Fired  uint64 // faults that actually triggered
}

// FS creates fault-injecting files; one fault plan and one RNG serve
// every file it creates.
type FS struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults []Fault
	ops    uint64 // global op counter (writes+syncs)
	stats  Stats
	files  []*File

	stalled    chan struct{}
	resume     chan struct{}
	resumeOnce sync.Once
}

// New returns an FS. The seed drives every probabilistic choice (torn
// sector patterns, short-write lengths, Prob faults), so identical runs
// produce identical damage.
func New(seed int64) *FS {
	return &FS{
		rng:     rand.New(rand.NewSource(seed)),
		stalled: make(chan struct{}, 1),
		resume:  make(chan struct{}),
	}
}

// Inject adds a fault to the plan. Safe to call between operations.
func (fs *FS) Inject(f Fault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.faults = append(fs.faults, f)
}

// Stats returns the operation counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// Ops returns the global operation counter, usable as a CrashAt point.
func (fs *FS) Ops() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Stalled receives when a Stall fault holds a write; a notice is
// dropped while an earlier one is still unread.
func (fs *FS) Stalled() <-chan struct{} { return fs.stalled }

// Resume releases every write a Stall fault holds, now and later.
func (fs *FS) Resume() { fs.resumeOnce.Do(func() { close(fs.resume) }) }

// fire reports whether a planned fault of one of the given kinds triggers
// for the class-op index n (1-based), removing one-shot At faults once
// spent. Caller holds fs.mu.
func (fs *FS) fire(n uint64, kinds ...Kind) (Fault, bool) {
	for i, f := range fs.faults {
		if !slices.Contains(kinds, f.Kind) {
			continue
		}
		if f.At != 0 && f.At == n {
			fs.faults = slices.Delete(fs.faults, i, i+1)
			fs.stats.Fired++
			return f, true
		}
		if f.Prob > 0 && fs.rng.Float64() < f.Prob {
			fs.stats.Fired++
			return f, true
		}
	}
	return Fault{}, false
}

// Create creates (truncating) the file at path; its signature is
// db.Options.SnapshotFile's.
func (fs *FS) Create(path string) (storage.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	file := &File{fs: fs, f: f, path: path}
	fs.mu.Lock()
	fs.files = append(fs.files, file)
	fs.mu.Unlock()
	return file, nil
}

// Crash simulates power loss now: the volatile state vanishes, and each
// file the FS created that is still at its path is rewritten with its
// last-synced durable image.
func (fs *FS) Crash() error { return fs.CrashAt(^uint64(0)) }

// CrashAt freezes the durable image as of global op index op (see Ops):
// every sync recorded after that point is undone, then the volatile
// state is dropped as in Crash.
func (fs *FS) CrashAt(op uint64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, file := range fs.files {
		var img []byte
		kept := file.syncs[:0]
		for _, s := range file.syncs {
			if s.op <= op {
				img = s.image
				kept = append(kept, s)
			}
		}
		file.syncs = kept
		file.pending = slices.Clone(img)
		if _, err := os.Stat(file.path); errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err := os.WriteFile(file.path, img, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// File is a fault-injecting file: a storage.File.
type File struct {
	fs      *FS
	f       *os.File
	path    string
	off     int
	pending []byte // what the next sync persists
	syncs   []syncImage
}

// syncImage is the durable image one successful sync left, keyed by the
// global op counter at sync time — the raw material for CrashAt.
type syncImage struct {
	op    uint64
	image []byte
}

// Write implements io.Writer: the bytes reach the real file and the
// pending image, unless a fault mangles them.
func (w *File) Write(p []byte) (int, error) {
	fs := w.fs
	fs.mu.Lock()
	fs.ops++
	fs.stats.Writes++
	f, ok := fs.fire(fs.stats.Writes, ShortWrite, TornPage, WriteErr, Stall)
	if ok && f.Kind == Stall {
		fs.mu.Unlock()
		select {
		case fs.stalled <- struct{}{}:
		default:
		}
		<-fs.resume
		fs.mu.Lock()
		ok = false
	}
	defer fs.mu.Unlock()
	oldLen := len(w.pending)
	if end := w.off + len(p); end > len(w.pending) {
		w.pending = append(w.pending, make([]byte, end-len(w.pending))...)
	}
	dst := w.pending[w.off : w.off+len(p)]
	switch {
	case !ok:
		copy(dst, p)
	case f.Kind == TornPage:
		const sector = 512
		torn := false
		for s := 0; s < len(p); s += sector {
			e := min(s+sector, len(p))
			if fs.rng.Intn(2) == 0 {
				copy(dst[s:e], p[s:e])
			} else {
				torn = true
			}
		}
		if !torn { // guarantee at least one stale sector
			clear(dst[:min(sector, len(p))])
		}
	default: // ShortWrite, WriteErr
		n := fs.rng.Intn(max(len(p), 1))
		copy(dst[:n], p[:n])
		if f.Kind == WriteErr {
			m, _ := w.f.Write(p[:n])
			w.pending = w.pending[:max(oldLen, w.off+m)]
			w.off += m
			return m, fmt.Errorf("faultfs: write %s at op %d: %s: %w", w.path, fs.ops, f.Kind, ErrInjected)
		}
	}
	n, err := w.f.Write(p)
	w.off += n
	return n, err
}

// Sync implements storage.File: the pending image becomes durable —
// unless a sync fault fires, in which case nothing does.
func (w *File) Sync() error {
	fs := w.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ops++
	fs.stats.Syncs++
	if f, ok := fs.fire(fs.stats.Syncs, SyncErr, SyncLost); ok {
		if f.Kind == SyncErr {
			return fmt.Errorf("faultfs: sync %s at op %d: %s: %w", w.path, fs.ops, f.Kind, ErrInjected)
		}
		return nil // SyncLost: lie
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs = append(w.syncs, syncImage{op: fs.ops, image: slices.Clone(w.pending)})
	return nil
}

// Close implements storage.File.
func (w *File) Close() error { return w.f.Close() }
