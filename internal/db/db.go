// Package db is the public facade of the composite-object database: it
// wires the schema catalog, the composite-object engine, the paged
// storage layer with write-ahead logging, the version manager, the
// authorization store, and the transaction manager into one ORION-like
// system.
//
// A DB opened with an empty Dir runs fully in memory (still through the
// page store, so clustering and I/O accounting work); a DB opened on a
// directory persists pages, catalog, and metadata, and recovers committed
// work from the WAL after a crash.
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
	// PoolPages is the buffer-pool capacity in pages (default 256).
	PoolPages int
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
	// GroupCommitWait bounds how long a group-commit leader waits for
	// concurrent committers to join its batch (default 200µs). The wait
	// is only taken when other committers are demonstrably in flight, so
	// a lone committer is never delayed.
	GroupCommitWait time.Duration
	// GroupCommitBatch caps how many committers one fsync may cover
	// (default 64).
	GroupCommitBatch int
	// Device overrides the page device, e.g. a fault-injecting wrapper
	// from internal/faultfs. When nil, Open uses a MemDevice for
	// in-memory databases and a FileDevice on Dir/pages.db otherwise.
	Device storage.Device
	// SlowOpThreshold arms the slow-op log from the start: operations at
	// or above this duration are recorded in the ring and trigger a
	// throttled flight-recorder dump. Zero leaves the log disabled (it
	// can still be armed later via Observability().Slow().SetThreshold,
	// which the shell's `slow DUR` command does).
	SlowOpThreshold time.Duration
}

// ErrClosed is returned when a closed DB is used.
var ErrClosed = errors.New("db: closed")

// DB is an open database.
type DB struct {
	mu     sync.Mutex
	opts   Options
	cat    *schema.Catalog
	engine *core.Engine

	dev   storage.Device
	pool  *storage.BufferPool
	store *storage.Store
	wal   *storage.WAL // nil for in-memory databases
	gc    *storage.GroupCommitter

	// commits counts transactions that logged an OpCommit. The metric
	// keeps its storage_shard_ name: the benchmark divides fsyncs and
	// group-commit wait by it.
	commits *obs.Counter
	// fence orders log appends against checkpoints: appending records and
	// applying them hold it shared, a checkpoint exclusively, so every
	// record is applied before the pool flush or appended after the log
	// truncation. Lock order: engine latch, fence, hook.mu, store/pool.
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
	pagesFile    = "pages.db"
	walFile      = "wal.log"
	catalogFile  = "catalog.json"
	indexFile    = "indexes.json"
	storeFile    = "store.json"
	versionsFile = "versions.json"
	authFile     = "auth.json"
)

// Open opens (creating or recovering) a database.
func Open(opts Options) (*DB, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = 256
	}
	d := &DB{opts: opts, cat: schema.NewCatalog(), reg: obs.NewRegistry(), saved: make(map[string][sha256.Size]byte)}
	d.profRuns = d.reg.Counter("query_profile_runs_total")
	d.profWall = d.reg.Histogram("query_profile_wall_ns", nil)
	if opts.SlowOpThreshold > 0 {
		d.reg.Slow().SetThreshold(opts.SlowOpThreshold)
	}
	d.engine = core.NewEngine(d.cat)
	// One registry for every subsystem, installed before anything runs
	// concurrently: the /metrics endpoint then exposes core, storage,
	// lock, and txn families side by side.
	d.engine.SetObservability(d.reg)
	d.commits = d.reg.Counter("storage_shard_local_commit_total")
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("db: create dir: %w", err)
		}
		if err := checkShardsFile(opts.Dir); err != nil {
			return nil, err
		}
	}
	switch {
	case opts.Device != nil:
		d.dev = opts.Device
	case opts.Dir == "":
		d.dev = storage.NewMemDevice()
	default:
		dev, err := storage.OpenFileDevice(filepath.Join(opts.Dir, pagesFile))
		if err != nil {
			return nil, err
		}
		d.dev = dev
	}
	d.pool = storage.NewBufferPool(d.dev, opts.PoolPages)
	d.pool.SetObservability(d.reg)
	d.store = storage.NewStore(d.pool)
	d.vers = version.NewManager(d.engine)
	d.auth = authz.NewStore(d.engine)
	d.txm = txn.NewManager(d.engine) // picks up d.reg via the engine
	d.idx = index.NewManager(d.engine)

	if opts.Dir != "" {
		if err := d.recover(); err != nil {
			d.dev.Close()
			return nil, err
		}
		wal, err := storage.OpenWAL(filepath.Join(opts.Dir, walFile))
		if err != nil {
			d.dev.Close()
			return nil, err
		}
		wal.SetObservability(d.reg)
		d.wal = wal
	}
	// The group committer is constructed even for in-memory databases
	// (d.wal == nil makes every Sync a no-op) so its metric family is
	// always registered.
	d.gc = storage.NewGroupCommitter(d.wal, opts.GroupCommitWait, opts.GroupCommitBatch)
	d.gc.SetObservability(d.reg)
	h := &hook{d: d, groups: make(map[core.TxnID]*group)}
	d.engine.SetHook(core.MultiHook{h, d.vers})
	d.engine.SetPublishHook(core.MultiHook{d.vers, d.idx})
	d.txm.SetBoundary(h)
	// Profiled transactions attach themselves as the ambient cost sink of
	// the layers that carry no per-operation context (pool, WAL, lock
	// manager); see Txn.Profile and DB.AttachProf.
	d.txm.SetProfHooks(d.AttachProf, func(*obs.ProfCtx) { d.AttachProf(nil) })
	return d, nil
}

// shardsFile is the manifest in which earlier releases pinned the shard
// count of a unit-sharded database. Open writes none, but refuses a
// directory whose manifest names more than one shard: such a directory
// holds per-shard pages and logs that a single-log store would silently
// ignore.
const shardsFile = "shards.json"

// checkShardsFile fails when dir carries a multi-shard manifest.
func checkShardsFile(dir string) error {
	path := filepath.Join(dir, shardsFile)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var m struct {
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("db: parse %s: %w", path, err)
	}
	if m.Shards > 1 {
		return fmt.Errorf("db: %s names %d shards; only single-log databases can be opened", path, m.Shards)
	}
	return nil
}

// recover loads checkpointed metadata, replays the WAL, and rebuilds the
// engine from the store.
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
		return fmt.Errorf("db: WAL replay: %w", err)
	}
	// Rebuild the engine from the store.
	for _, id := range d.store.UIDs() {
		rec, err := d.store.Get(id)
		if err != nil {
			return err
		}
		o, err := encoding.DecodeObject(rec)
		if err != nil {
			return fmt.Errorf("db: decode %v: %w", id, err)
		}
		if err := d.engine.Load(o); err != nil {
			return err
		}
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

// replay applies the WAL to the store and returns the highest
// transaction ID it saw. Engine-direct records (Txn == 0) apply
// immediately; a transaction's records are buffered and applied only
// when its OpCommit is reached, so an uncommitted tail — the log of a
// transaction interrupted by a crash, or one an older release logged
// with an OpAbort — is discarded wholesale and can never leave a partial
// cascade behind.
func (d *DB) replay() (uint64, error) {
	// Segment IDs below this boundary come from the checkpoint's segment
	// table and are stable across recovery; IDs at or above it were
	// assigned after the checkpoint, and replay may hand them out in a
	// different order (e.g. when a discarded transaction created a
	// segment first), so they cannot be trusted by number.
	ckptSegs := d.store.NextSegment()
	var maxTxn uint64
	pending := make(map[uint64][]storage.WALRecord)
	err := storage.ReplayWAL(filepath.Join(d.opts.Dir, walFile), func(rec storage.WALRecord) error {
		maxTxn = max(maxTxn, rec.Txn)
		switch rec.Op {
		case storage.OpBegin:
			// A fresh Begin resets whatever an earlier incarnation of the
			// same ID left behind.
			pending[rec.Txn] = []storage.WALRecord{}
			return nil
		case storage.OpCommit:
			for _, buffered := range pending[rec.Txn] {
				if err := d.applyRecord(ckptSegs, buffered); err != nil {
					return err
				}
			}
			delete(pending, rec.Txn)
			return nil
		case storage.OpAbort:
			delete(pending, rec.Txn)
			return nil
		case storage.OpPut, storage.OpDelete:
			if rec.Txn != 0 {
				pending[rec.Txn] = append(pending[rec.Txn], rec)
				return nil
			}
			return d.applyRecord(ckptSegs, rec)
		default:
			return fmt.Errorf("unknown WAL op %d", rec.Op)
		}
	})
	return maxTxn, err
}

// applyRecord applies one data record to the store: the one applier for
// replay and for live commits (which pass the current segment count as
// ckptSegs, since every segment a live record names exists).
func (d *DB) applyRecord(ckptSegs storage.SegmentID, rec storage.WALRecord) error {
	switch rec.Op {
	case storage.OpPut:
		// Prefer the segment persisted with the record; fall back to the
		// class assignment when the record predates segment logging or
		// references a post-checkpoint segment.
		seg := rec.Seg
		if seg == 0 || seg >= ckptSegs || !d.store.HasSegment(seg) {
			var err error
			if seg, err = d.segmentForClass(rec.UID.Class); err != nil {
				return err
			}
		}
		return d.store.Put(seg, rec.UID, rec.Data, rec.Near)
	default: // storage.OpDelete
		if err := d.store.Delete(rec.UID); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return err
		}
		return nil
	}
}

// segmentForClass returns (creating if needed) the segment the class is
// assigned to.
func (d *DB) segmentForClass(c uid.ClassID) (storage.SegmentID, error) {
	cl, err := d.cat.ClassByID(c)
	if err != nil {
		return 0, err
	}
	return d.segmentNamed(cl.Segment)
}

// segmentNamed returns (creating if needed) the segment with the name.
func (d *DB) segmentNamed(name string) (storage.SegmentID, error) {
	if seg, ok := d.store.SegmentByName(name); ok {
		return seg, nil
	}
	seg, err := d.store.CreateSegment(name)
	if errors.Is(err, storage.ErrDupSegment) {
		// Lost a creation race with a concurrent writer.
		if seg, ok := d.store.SegmentByName(name); ok {
			return seg, nil
		}
	}
	return seg, err
}

// hook mirrors engine mutations into the WAL and page store. A
// transaction's records wait in its group until the outcome (the hook is
// also the txn Boundary): OnCommit logs the group and then applies it,
// so pages never hold uncommitted bytes; OnAbort drops it. An
// engine-direct record (tx 0) is logged and applied at once.
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

// add records the object's newest state, keeping the segment and
// placement hint of its first Put: those place a created object.
func (g *group) add(rec storage.WALRecord) {
	i, ok := g.at[rec.UID]
	if !ok {
		g.at[rec.UID] = len(g.recs)
		g.recs = append(g.recs, rec)
		return
	}
	if prev := g.recs[i]; rec.Op == storage.OpPut && prev.Op == storage.OpPut {
		rec.Seg, rec.Near = prev.Seg, prev.Near
	}
	g.recs[i] = rec
}

// record routes one data record: a transaction's joins its group, an
// engine-direct one is logged and applied at once.
func (h *hook) record(tx core.TxnID, rec storage.WALRecord) error {
	if tx != 0 {
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
	d := h.d
	d.fence.RLock()
	defer d.fence.RUnlock()
	if err := d.logRecords(0, []storage.WALRecord{rec}); err != nil {
		return err
	}
	return d.applyRecord(d.store.NextSegment(), rec)
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

// OnWrite implements core.Hook. near is the §2.3 first parent on the
// creating write and Nil otherwise; the WAL records it, so replay
// reproduces the clustering.
func (h *hook) OnWrite(tx core.TxnID, o *object.Object, near uid.UID) error {
	d := h.d
	seg, err := d.segmentForClass(o.Class())
	if err != nil {
		return err
	}
	return h.record(tx, storage.WALRecord{
		Op: storage.OpPut, Txn: uint64(tx), UID: o.UID(), Seg: seg, Near: near, Data: encoding.EncodeObject(o),
	})
}

func (h *hook) OnDelete(tx core.TxnID, id uid.UID) error {
	// Record the segment the object lived in (best effort: the class
	// assignment when the store does not have it), so replay tooling sees
	// where the delete landed. Near is meaningless for deletes and stays
	// Nil.
	seg, ok := h.d.store.SegmentOf(id)
	if !ok {
		seg, _ = h.d.segmentForClass(id.Class)
	}
	return h.record(tx, storage.WALRecord{Op: storage.OpDelete, Txn: uint64(tx), UID: id, Seg: seg})
}

// OnCommit implements txn.Boundary: it logs the group, makes it durable
// under SyncWAL, and applies it through applyRecord, all before any lock
// is released (strict 2PL durability point). A group whose append failed
// is not applied, as replay would not apply it either. Read-only
// transactions (empty group) skip the log.
func (h *hook) OnCommit(tx core.TxnID) error {
	d := h.d
	d.fence.RLock()
	defer d.fence.RUnlock()
	h.mu.Lock()
	g := h.groups[tx]
	if g == nil {
		delete(h.groups, tx)
		h.mu.Unlock()
		return nil
	}
	err := d.logRecords(tx, g.recs)
	h.mu.Unlock()
	var syncErr error
	if err == nil && d.wal != nil && d.opts.SyncWAL {
		syncErr = d.gc.Sync()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.groups, tx)
	if err != nil {
		return err
	}
	segs := d.store.NextSegment()
	for _, rec := range g.recs {
		if err := d.applyRecord(segs, rec); err != nil {
			return err
		}
	}
	return syncErr
}

// OnAbort implements txn.Boundary: the group was never logged or applied,
// so dropping it is the whole abort of the store. The engine has dropped
// the transaction's overlay by now, and the version bookkeeping follows
// the committed objects.
func (h *hook) OnAbort(tx core.TxnID) error {
	h.d.vers.OnAbort(tx)
	h.mu.Lock()
	delete(h.groups, tx)
	h.mu.Unlock()
	return nil
}

// Checkpoint flushes dirty pages and metadata to disk and truncates the
// WAL. It is a no-op for in-memory databases.
func (d *DB) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked()
}

// checkpointLocked runs the checkpoint and, on failure, dumps the
// flight recorder: a checkpoint that cannot complete is exactly the
// moment the recent-operation history is about to become unrecoverable.
func (d *DB) checkpointLocked() error {
	err := d.checkpointInner()
	if err != nil && !errors.Is(err, ErrClosed) {
		if f := d.reg.Flight(); f != nil {
			f.Record("db.checkpoint", d.opts.Dir, 0, "err", err.Error())
			f.Dump("checkpoint failure")
		}
	}
	return err
}

// checkpointInner holds the fence exclusively from the log sync to the
// log truncation. Metadata files and then the directory are fsynced
// before the truncation. An unchanged metadata file is not rewritten:
// its fsyncs are most of a checkpoint's time, and writers wait meanwhile.
func (d *DB) checkpointInner() error {
	if d.closed {
		return ErrClosed
	}
	if d.opts.Dir == "" {
		return nil
	}
	d.fence.Lock()
	defer d.fence.Unlock()
	if err := d.wal.Sync(); err != nil {
		return err
	}
	if err := d.pool.FlushAll(); err != nil {
		return err
	}
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
		if err := syncPath(path + ".tmp"); err != nil {
			return err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return err
		}
		written[m.name] = sum
	}
	if len(written) > 0 {
		if err := syncPath(d.opts.Dir); err != nil {
			return err
		}
		for name, sum := range written {
			d.saved[name] = sum
		}
	}
	return d.wal.Truncate()
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
		{storeFile, d.store.SaveMeta, d.store.LoadMeta},
		{versionsFile, d.vers.Save, d.vers.Load},
		{authFile, d.auth.Save, d.auth.Load},
		{indexFile,
			func(w io.Writer) error { return json.NewEncoder(w).Encode(d.idxDef) },
			func(r io.Reader) error { return json.NewDecoder(r).Decode(&d.idxDef) }},
	}
}

// syncPath fsyncs the file or directory at path; on a directory this
// makes the renames in it durable.
func syncPath(path string) error {
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

// Close checkpoints (for durable databases) and releases resources. A
// failing checkpoint no longer leaks the WAL and device handles: every
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
// flushing anything — simulating a process crash for recovery tests.
// Buffered pages and in-memory state are discarded; whatever the WAL and
// the last checkpoint captured is what a subsequent Open recovers.
func (d *DB) Abandon() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	return d.closeLocked()
}

// closeLocked marks the database closed and releases the WAL and device
// handles; the first error wins.
func (d *DB) closeLocked() error {
	d.closed = true
	var firstErr error
	if d.wal != nil {
		firstErr = d.wal.Close()
	}
	if err := d.dev.Close(); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Access to the subsystems. The facade re-exports the most common
// operations below; everything else is reachable through these.

// Catalog returns the schema catalog.
func (d *DB) Catalog() *schema.Catalog { return d.cat }

// Engine returns the composite-object engine. Its queries read the
// committed objects, as the facade's do. Its mutations are engine-direct writes
// (tx 0): they take no §7 lock and join no transaction, are logged and
// applied at once, and become durable at the next commit's fsync or
// checkpoint. They are unsupported while any transaction is open, since
// nothing then keeps them off that transaction's objects; every write of
// the facade and the wire runs as a transaction instead.
func (d *DB) Engine() *core.Engine { return d.engine }

// Versions returns the version manager.
func (d *DB) Versions() *version.Manager { return d.vers }

// Authz returns the authorization store.
func (d *DB) Authz() *authz.Store { return d.auth }

// Txns returns the transaction manager.
func (d *DB) Txns() *txn.Manager { return d.txm }

// Store returns the object store (for clustering/IO inspection).
func (d *DB) Store() *storage.Store { return d.store }

// CheckPlacement verifies the store's exactly-one-location invariant
// (every object readable, no stale duplicate slot) under d.mu, which
// excludes checkpoints and Close. Call it only while writers are idle.
func (d *DB) CheckPlacement() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.store.CheckPlacement()
}

// Pool returns the buffer pool (for I/O statistics).
func (d *DB) Pool() *storage.BufferPool { return d.pool }

// Indexes returns the secondary-index manager.
func (d *DB) Indexes() *index.Manager { return d.idx }

// Observability returns the registry shared by every subsystem — the
// source for the /metrics exposition, trace control, and the slow log.
func (d *DB) Observability() *obs.Registry { return d.reg }

// AttachProf installs p as the ambient cost sink of the layers that
// carry no per-operation context — the buffer pool, the WAL, and the
// lock manager's unregistered waiters — so page fetches, evictions, WAL
// frames, and lock waits are attributed to it. Attribution is exact
// when one profiled operation runs at a time (the (profile ...) surface
// and the sim checks run serially); concurrent profiled operations race
// for the slot and the last attach wins. Detach by attaching nil.
// Txn.Profile calls this automatically through the manager's hooks.
func (d *DB) AttachProf(p *obs.ProfCtx) {
	d.pool.AttachProf(p)
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
	if d.opts.Dir != "" {
		return d.Checkpoint()
	}
	return nil
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
	if d.opts.Dir != "" {
		return d.Checkpoint()
	}
	return nil
}
