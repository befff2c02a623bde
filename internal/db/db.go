// Package db is the public facade of the composite-object database: it
// wires the schema catalog, the composite-object engine, the
// write-ahead log and its snapshots, the version manager, the
// authorization store, and the transaction manager into one ORION-like
// system.
//
// A DB opened with an empty Dir runs fully in memory; a DB opened on a
// directory logs every commit, checkpoints the committed objects into
// one snapshot file beside the catalog and metadata, and recovers from
// the snapshot plus the log after a crash.
package db

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/index"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/version"
)

// Options configures Open.
type Options struct {
	// Dir is the database directory; empty means in-memory.
	Dir string
	// SyncWAL makes commits durable: the WAL is fsynced at every
	// Txn.Commit that logged a write — each facade or wire statement
	// outside (begin) is one — before the commit returns. An
	// engine-direct write (tx 0) is logged at once and made durable by
	// the next such fsync or checkpoint. The fsync is issued
	// through a group-commit coordinator, so concurrent committers share
	// one fsync per batch rather than paying one each. Without SyncWAL
	// the log is synced only at checkpoints, and a crash may lose
	// recently committed work (it never produces a half-applied
	// transaction either way; replay is atomic per transaction).
	SyncWAL bool
	// SnapshotFile overrides how a checkpoint creates the file it writes
	// its snapshot to, e.g. with a fault-injecting file from
	// internal/faultfs. When nil, storage.CreateFile.
	SnapshotFile func(path string) (storage.File, error)
}

// ErrClosed is returned when a closed DB is used.
var ErrClosed = errors.New("db: closed")

// ErrLocked is returned by Open when another open DB, in this process or
// another, holds the directory.
var ErrLocked = errors.New("db: directory in use")

// ErrOldLayout is returned by Open for a directory an earlier release
// wrote in another on-disk layout.
var ErrOldLayout = errors.New("db: directory holds an earlier on-disk layout")

// DB is an open database.
type DB struct {
	mu     sync.Mutex
	opts   Options
	cat    *schema.Catalog
	engine *core.Engine

	wal  *storage.WAL // nil for in-memory databases
	gc   *storage.GroupCommitter
	lock *os.File // holds the directory's lock; nil in memory

	// commits counts transactions that logged an OpCommit. The metric
	// keeps its storage_shard_ name: the benchmark divides fsyncs and
	// group-commit wait by it.
	commits *obs.Counter
	// fence orders log appends against checkpoints. A commit holds it
	// shared from the append of its group to the publication of its
	// overlay, an engine-direct write (published before it is logged)
	// around its append; a checkpoint holds it exclusively while it
	// begins the snapshot it then writes, syncs the log, saves the
	// metadata and rotates the log. So every record in a rotated log is
	// published, and in the snapshot.
	//
	// Lock order: fence, engine latch, as a commit publishes; fence,
	// hook.mu, WAL. The one path against it is an engine-direct write,
	// whose notification takes the fence under the engine's shared latch.
	// That cannot deadlock: engine-direct writes are unsupported while a
	// transaction is open, so no commit then waits for the latch under
	// the fence, and a checkpoint takes no engine latch under it.
	fence sync.RWMutex
	// saved is the checksum of each metadata file as last made durable.
	// Guarded by mu.
	saved map[string][sha256.Size]byte

	vers   *version.Manager
	auth   *authz.Store
	txm    *txn.Manager
	idx    *index.Manager
	idxDef [][2]string // persisted (class, attr) index definitions
	reg    *obs.Registry
	closed bool

	// Profiling instruments, bound at Open so the query_profile_* family
	// is present in the exposition before the first (profile ...) runs.
	profRuns *obs.Counter
	profWall *obs.Histogram
}

const (
	walFile      = "wal.log"
	prevWALFile  = "wal.prev"
	snapshotFile = "snapshot"
	lockFile     = "LOCK"
	catalogFile  = "catalog.json"
	indexFile    = "indexes.json"
	versionsFile = "versions.json"
	authFile     = "auth.json"
)

// oldLayoutFiles are files an earlier release kept in the directory: the
// pages and their segment table, which held committed objects the
// snapshot and the log do not, and the manifest of a sharded store.
var oldLayoutFiles = []string{"pages.db", "store.json", "shards.json"}

// Open opens (creating or recovering) a database.
func Open(opts Options) (*DB, error) {
	if opts.SnapshotFile == nil {
		opts.SnapshotFile = storage.CreateFile
	}
	d := &DB{opts: opts, cat: schema.NewCatalog(), reg: obs.NewRegistry(), saved: make(map[string][sha256.Size]byte)}
	d.profRuns = d.reg.Counter("query_profile_runs_total")
	d.profWall = d.reg.Histogram("query_profile_wall_ns", nil)
	d.engine = core.NewEngine(d.cat)
	// One registry for every subsystem, installed before anything runs
	// concurrently: the /metrics endpoint then exposes core, storage,
	// lock, and txn families side by side.
	d.engine.SetObservability(d.reg)
	d.commits = d.reg.Counter("storage_shard_local_commit_total")
	d.vers = version.NewManager(d.engine)
	d.auth = authz.NewStore(d.engine)
	d.txm = txn.NewManager(d.engine) // picks up d.reg via the engine
	d.idx = index.NewManager(d.engine)

	if opts.Dir != "" {
		if err := d.openDir(); err != nil {
			if d.lock != nil {
				d.lock.Close()
			}
			return nil, err
		}
	}
	// The group committer is constructed even for in-memory databases
	// (d.wal == nil makes every Sync a no-op) so its metric family is
	// always registered.
	d.gc = storage.NewGroupCommitter(d.wal, 0, 0)
	d.gc.SetObservability(d.reg)
	h := &hook{d: d, groups: make(map[core.TxnID]*group)}
	d.engine.SetHook(core.MultiHook{h, d.vers})
	d.engine.SetPublishHook(core.MultiHook{d.vers, d.idx})
	d.txm.SetBoundary(h)
	// Profiled transactions attach themselves as the ambient cost sink of
	// the layers that carry no per-operation context (WAL, lock
	// manager); see Txn.Profile and DB.AttachProf.
	d.txm.SetProfHooks(d.AttachProf, func(*obs.ProfCtx) { d.AttachProf(nil) })
	return d, nil
}

// openDir locks the directory, recovers its contents, and opens the log
// for appending.
func (d *DB) openDir() error {
	dir := d.opts.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("db: create dir: %w", err)
	}
	lock, err := lockDir(filepath.Join(dir, lockFile))
	if err != nil {
		return err
	}
	d.lock = lock
	for _, name := range oldLayoutFiles {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("%w: %s; this release cannot open it", ErrOldLayout, path)
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	if err := d.recover(); err != nil {
		return err
	}
	wal, err := storage.OpenWAL(filepath.Join(dir, walFile))
	if err != nil {
		return err
	}
	wal.SetObservability(d.reg)
	d.wal = wal
	return nil
}

// recover loads checkpointed metadata and replays the snapshot and the
// log into the engine.
func (d *DB) recover() error {
	for _, m := range d.metaFiles() {
		b, err := os.ReadFile(filepath.Join(d.opts.Dir, m.name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if err := m.load(bytes.NewReader(b)); err != nil {
			return err
		}
	}
	maxTxn, err := d.replay()
	if err != nil {
		return fmt.Errorf("db: replay: %w", err)
	}
	// Rebuild the declared indexes over the restored extents.
	for _, def := range d.idxDef {
		if err := d.idx.CreateIndex(def[0], def[1]); err != nil {
			return err
		}
	}
	// Seed the transaction-ID counter past every ID the log holds, so no
	// new transaction reuses the ID of a record still in the log (an
	// uncommitted tail, say) and replay never has to tell two
	// incarnations of one ID apart.
	d.txm.SeedNext(maxTxn)
	return nil
}

// snapshotBatch is how many of a snapshot's objects replay restores as
// one commit boundary.
const snapshotBatch = 4096

// replay restores the snapshot, then applies the predecessor log a
// failed checkpoint left, if any, and the log, and returns the highest
// transaction ID it saw. Engine-direct records (Txn == 0) apply
// immediately; a transaction's records are held and applied as one
// commit boundary when its OpCommit is reached, so an uncommitted tail —
// the log of a transaction interrupted by a crash, or one an older
// release logged with an OpAbort — is discarded wholesale and can never
// leave a partial cascade behind. Only the log's tail may be torn: the
// snapshot and the predecessor were synced whole before anything could
// read them. A torn tail is cut off, so that the records appended next
// follow the last intact frame.
func (d *DB) replay() (uint64, error) {
	dir := d.opts.Dir
	var batch []storage.WALRecord
	lastUID, err := storage.ReplaySnapshot(filepath.Join(dir, snapshotFile), func(rec storage.WALRecord) error {
		if batch = append(batch, rec); len(batch) < snapshotBatch {
			return nil
		}
		err := d.restore(batch)
		batch = batch[:0]
		return err
	})
	if err == nil {
		err = d.restore(batch)
	}
	if err != nil {
		return 0, err
	}
	d.engine.SeedUID(lastUID)

	var maxTxn uint64
	pending := make(map[uint64][]storage.WALRecord)
	apply := func(rec storage.WALRecord) error {
		maxTxn = max(maxTxn, rec.Txn)
		switch rec.Op {
		case storage.OpBegin:
			// A fresh Begin resets whatever an earlier incarnation of the
			// same ID left behind.
			pending[rec.Txn] = []storage.WALRecord{}
			return nil
		case storage.OpCommit:
			err := d.restore(pending[rec.Txn])
			delete(pending, rec.Txn)
			return err
		case storage.OpAbort:
			delete(pending, rec.Txn)
			return nil
		case storage.OpPut, storage.OpDelete:
			if rec.Txn != 0 {
				pending[rec.Txn] = append(pending[rec.Txn], rec)
				return nil
			}
			return d.restore([]storage.WALRecord{rec})
		default:
			return fmt.Errorf("unknown WAL op %d", rec.Op)
		}
	}
	if err := storage.ReplayStrict(filepath.Join(dir, prevWALFile), apply); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, walFile)
	var end int64
	err = storage.ReplayWALFrames(path, func(rec storage.WALRecord, _, e int64) error {
		end = e
		return apply(rec)
	})
	if err != nil {
		return 0, err
	}
	if st, err := os.Stat(path); err == nil && st.Size() > end {
		if err := os.Truncate(path, end); err != nil {
			return 0, err
		}
	}
	return maxTxn, nil
}

// restore installs one committed group of records (or one engine-direct
// record, or a batch of a snapshot's objects) in the engine as one
// commit boundary. An object whose class the catalog no longer holds is
// skipped: a class is dropped only after the deletion of its every
// instance commits, so the object is one that deletion removed, met in
// a snapshot older than the catalog (DropClass saves the catalog and
// writes no snapshot).
func (d *DB) restore(recs []storage.WALRecord) error {
	objs := make(map[uid.UID]*object.Object, len(recs))
	for _, rec := range recs {
		if rec.Op == storage.OpDelete {
			objs[rec.UID] = nil
			continue
		}
		if _, err := d.cat.ClassByID(rec.UID.Class); err != nil {
			d.engine.SeedUID(rec.UID.Serial)
			continue
		}
		o, err := encoding.DecodeObject(rec.Data)
		if err != nil {
			return fmt.Errorf("db: decode %v: %w", rec.UID, err)
		}
		objs[rec.UID] = o
	}
	return d.engine.Restore(objs)
}

// hook mirrors engine mutations into the WAL. A transaction's records
// wait in its group until the outcome (the hook is also the txn
// Boundary): OnCommit logs the group and then publishes it, OnAbort
// drops it. An engine-direct record (tx 0) is logged at once.
type hook struct {
	d      *DB
	mu     sync.Mutex
	groups map[core.TxnID]*group
}

// group is one transaction's pending records, one per object in the
// order of its first write.
type group struct {
	recs []storage.WALRecord
	at   map[uid.UID]int // index in recs of each object's record
}

// add records the object's newest state.
func (g *group) add(rec storage.WALRecord) {
	i, ok := g.at[rec.UID]
	if !ok {
		g.at[rec.UID] = len(g.recs)
		g.recs = append(g.recs, rec)
		return
	}
	g.recs[i] = rec
}

// record routes one data record: a transaction's joins its group, an
// engine-direct one is logged at once, under the shared fence.
func (h *hook) record(tx core.TxnID, rec storage.WALRecord) error {
	if tx == 0 {
		h.d.fence.RLock()
		defer h.d.fence.RUnlock()
		return h.d.logRecords(0, []storage.WALRecord{rec})
	}
	h.mu.Lock()
	g := h.groups[tx]
	if g == nil {
		g = &group{at: make(map[uid.UID]int)}
		h.groups[tx] = g
	}
	g.add(rec)
	h.mu.Unlock()
	return nil
}

// logRecords appends recs, bracketed by OpBegin and OpCommit when they
// are a transaction's group. Engine-direct records (tx == 0) carry no
// bracket: replay applies them immediately.
func (d *DB) logRecords(tx core.TxnID, recs []storage.WALRecord) error {
	if d.wal == nil {
		return nil
	}
	if tx != 0 {
		if err := d.wal.Append(storage.WALRecord{Op: storage.OpBegin, Txn: uint64(tx)}); err != nil {
			return err
		}
	}
	for _, rec := range recs {
		if err := d.wal.Append(rec); err != nil {
			return err
		}
	}
	if tx == 0 {
		return nil
	}
	if err := d.wal.Append(storage.WALRecord{Op: storage.OpCommit, Txn: uint64(tx)}); err != nil {
		return err
	}
	d.commits.Inc()
	return nil
}

// OnWrite implements core.Hook.
func (h *hook) OnWrite(tx core.TxnID, o *object.Object) error {
	return h.record(tx, storage.WALRecord{
		Op: storage.OpPut, Txn: uint64(tx), UID: o.UID(), Data: encoding.EncodeObject(o),
	})
}

// OnDelete implements core.Hook.
func (h *hook) OnDelete(tx core.TxnID, id uid.UID) error {
	return h.record(tx, storage.WALRecord{Op: storage.OpDelete, Txn: uint64(tx), UID: id})
}

// OnCommit implements txn.Boundary: it logs the group, makes it durable
// under SyncWAL, and publishes it, all before any lock is released
// (strict 2PL durability point) and all under the shared fence, so a
// checkpoint never rotates a logged group out of the log before its
// objects are in the snapshot. Read-only transactions (empty group)
// skip the log.
func (h *hook) OnCommit(tx core.TxnID, publish func()) error {
	d := h.d
	d.fence.RLock()
	defer d.fence.RUnlock()
	defer publish()
	h.mu.Lock()
	g := h.groups[tx]
	delete(h.groups, tx)
	if g == nil {
		h.mu.Unlock()
		return nil
	}
	err := d.logRecords(tx, g.recs)
	h.mu.Unlock()
	if err == nil && d.wal != nil && d.opts.SyncWAL {
		err = d.gc.Sync()
	}
	return err
}

// OnAbort implements txn.Boundary: the group was never logged, so
// dropping it is the whole abort of the log. The engine has dropped the
// transaction's overlay by now, and the version bookkeeping follows the
// committed objects.
func (h *hook) OnAbort(tx core.TxnID) error {
	h.d.vers.OnAbort(tx)
	h.mu.Lock()
	delete(h.groups, tx)
	h.mu.Unlock()
	return nil
}

// Checkpoint writes the committed objects to a new snapshot and drops
// the log that precedes it. It is a no-op for in-memory databases.
func (d *DB) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked()
}

// checkpointLocked runs the checkpoint and, on failure, dumps the
// recorder's ring: a checkpoint that cannot complete is exactly the
// moment the recent-operation history is about to become unrecoverable.
func (d *DB) checkpointLocked() error {
	err := d.checkpointInner()
	if err != nil && !errors.Is(err, ErrClosed) {
		rec := d.reg.Recorder()
		rec.Op("db.checkpoint", d.opts.Dir, time.Now(), 0, "err", err.Error())
		rec.Dump("checkpoint failure")
	}
	return err
}

// checkpointInner rotates the log under the fence, then streams the
// snapshot with the fence released: commits proceed meanwhile, into the
// new log. The snapshot is fsynced and renamed into place, and the
// directory fsynced, before the predecessor log is deleted; a crash
// before that recovers from the previous snapshot and both logs.
func (d *DB) checkpointInner() error {
	if d.closed {
		return ErrClosed
	}
	if d.opts.Dir == "" {
		return nil
	}
	snap, lastUID, err := d.rotate()
	if err != nil {
		return err
	}
	defer snap.Release()
	path := filepath.Join(d.opts.Dir, snapshotFile)
	f, err := d.opts.SnapshotFile(path + ".tmp")
	if err != nil {
		return err
	}
	sw := storage.NewSnapshotWriter(f)
	err = snap.Each(func(o *object.Object) error {
		return sw.Put(storage.WALRecord{Op: storage.OpPut, UID: o.UID(), Data: encoding.EncodeObject(o)})
	})
	if err == nil {
		err = sw.Finish(lastUID)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	if err := storage.SyncPath(d.opts.Dir); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(d.opts.Dir, prevWALFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// rotate holds the fence exclusively while it begins the snapshot the
// checkpoint writes, syncs the log, saves the metadata files, and moves
// the log to the predecessor file; it returns the snapshot and the
// highest UID serial issued. An unchanged metadata file is not
// rewritten: its fsyncs would be most of the time commits wait here.
//
// A predecessor that a failed checkpoint left behind is still needed, so
// the log is then not rotated onto it: the new snapshot covers both
// logs, and replaying the log's older records over it is harmless, each
// holding an object's whole state and replaying in order.
func (d *DB) rotate() (*core.Snapshot, uint64, error) {
	d.fence.Lock()
	defer d.fence.Unlock()
	snap, lastUID := d.engine.BeginSnapshot(), d.engine.LastUID()
	err := d.wal.Sync()
	if err == nil {
		err = d.saveMeta()
	}
	prev := filepath.Join(d.opts.Dir, prevWALFile)
	if _, serr := os.Stat(prev); err == nil && errors.Is(serr, os.ErrNotExist) {
		err = d.wal.Rotate(prev)
	} else if err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		snap.Release()
		return nil, 0, err
	}
	return snap, lastUID, nil
}

// syncMeta makes the log and the metadata files that changed durable,
// in that order, without writing a snapshot: what a schema statement or
// an index declaration needs. Replaying the log over the last snapshot
// under the saved catalog reaches the state they left, as it does after
// a checkpoint that failed at its snapshot. A no-op in memory.
func (d *DB) syncMeta() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.opts.Dir == "" {
		return nil
	}
	if err := d.wal.Sync(); err != nil {
		return err
	}
	return d.saveMeta()
}

// saveMeta writes each metadata file that changed since it was last made
// durable, then fsyncs the directory.
func (d *DB) saveMeta() error {
	written := make(map[string][sha256.Size]byte)
	for _, m := range d.metaFiles() {
		var buf bytes.Buffer
		if err := m.save(&buf); err != nil {
			return err
		}
		sum := sha256.Sum256(buf.Bytes())
		if d.saved[m.name] == sum {
			continue
		}
		path := filepath.Join(d.opts.Dir, m.name)
		if err := os.WriteFile(path+".tmp", buf.Bytes(), 0o644); err != nil {
			return err
		}
		if err := storage.SyncPath(path + ".tmp"); err != nil {
			return err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return err
		}
		written[m.name] = sum
	}
	if len(written) > 0 {
		if err := storage.SyncPath(d.opts.Dir); err != nil {
			return err
		}
		for name, sum := range written {
			d.saved[name] = sum
		}
	}
	return nil
}

// metaFile is one checkpointed metadata file and the state it holds.
type metaFile struct {
	name string
	save func(io.Writer) error
	load func(io.Reader) error
}

// metaFiles lists the checkpointed metadata files in load order.
func (d *DB) metaFiles() []metaFile {
	return []metaFile{
		{catalogFile, d.cat.Save, d.cat.Load},
		{versionsFile, d.vers.Save, d.vers.Load},
		{authFile, d.auth.Save, d.auth.Load},
		{indexFile,
			func(w io.Writer) error { return json.NewEncoder(w).Encode(d.idxDef) },
			func(r io.Reader) error { return json.NewDecoder(r).Decode(&d.idxDef) }},
	}
}

// Close checkpoints (for durable databases) and releases resources. A
// failing checkpoint does not leak the WAL and lock handles: every
// release step runs regardless, and the first error wins.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	var firstErr error
	if d.opts.Dir != "" {
		firstErr = d.checkpointLocked()
	}
	if err := d.closeLocked(); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Abandon closes the database's file handles without checkpointing or
// syncing anything — simulating a process crash for recovery tests.
// In-memory state is discarded; whatever the WAL and the last checkpoint
// captured is what a subsequent Open recovers.
func (d *DB) Abandon() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	return d.closeLocked()
}

// closeLocked marks the database closed and releases the WAL and the
// directory lock; the first error wins.
func (d *DB) closeLocked() error {
	d.closed = true
	var firstErr error
	if d.wal != nil {
		firstErr = d.wal.Close()
	}
	if d.lock != nil {
		if err := d.lock.Close(); firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Access to the subsystems. The facade re-exports the most common
// operations below; everything else is reachable through these.

// Catalog returns the schema catalog.
func (d *DB) Catalog() *schema.Catalog { return d.cat }

// Engine returns the composite-object engine. Its queries read the
// committed objects, as the facade's do. Its mutations are engine-direct writes
// (tx 0): they take no §7 lock and join no transaction, are logged at
// once, and become durable at the next commit's fsync or checkpoint. They are unsupported while any transaction is open, since
// nothing then keeps them off that transaction's objects; every write of
// the facade and the wire runs as a transaction instead.
func (d *DB) Engine() *core.Engine { return d.engine }

// Versions returns the version manager.
func (d *DB) Versions() *version.Manager { return d.vers }

// Authz returns the authorization store.
func (d *DB) Authz() *authz.Store { return d.auth }

// Txns returns the transaction manager.
func (d *DB) Txns() *txn.Manager { return d.txm }

// Indexes returns the secondary-index manager.
func (d *DB) Indexes() *index.Manager { return d.idx }

// Observability returns the registry shared by every subsystem — the
// source for the /metrics exposition and of the recorder behind the
// trace, slow and flight views.
func (d *DB) Observability() *obs.Registry { return d.reg }

// AttachProf installs p as the ambient cost sink of the layers that
// carry no per-operation context — the WAL and the lock manager's
// unregistered waiters — so WAL frames and lock waits are attributed to
// it. Attribution is exact
// when one profiled operation runs at a time (the (profile ...) surface
// and the sim checks run serially); concurrent profiled operations race
// for the slot and the last attach wins. Detach by attaching nil.
// Txn.Profile calls this automatically through the manager's hooks.
func (d *DB) AttachProf(p *obs.ProfCtx) {
	if d.wal != nil {
		d.wal.AttachProf(p)
	}
	d.txm.Locks().AttachProf(p)
}

// ObserveProfile records one completed (profile ...) run in the
// query_profile_* metric family.
func (d *DB) ObserveProfile(wall time.Duration) {
	d.profRuns.Inc()
	d.profWall.Observe(int64(wall))
}

// CreateIndex declares and builds a secondary index on (class, attr); the
// declaration persists across reopen (the index itself is rebuilt from
// the extents at recovery, like ORION's memory-resident structures).
func (d *DB) CreateIndex(class, attr string) error {
	if err := d.idx.CreateIndex(class, attr); err != nil {
		return err
	}
	d.mu.Lock()
	d.idxDef = append(d.idxDef, [2]string{class, attr})
	d.mu.Unlock()
	return d.syncMeta()
}

// DropIndex removes a secondary index and its persisted declaration.
func (d *DB) DropIndex(class, attr string) error {
	if err := d.idx.DropIndex(class, attr); err != nil {
		return err
	}
	d.mu.Lock()
	for i, def := range d.idxDef {
		if def[0] == class && def[1] == attr {
			d.idxDef = append(d.idxDef[:i], d.idxDef[i+1:]...)
			break
		}
	}
	d.mu.Unlock()
	return d.syncMeta()
}
