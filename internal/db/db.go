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
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
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
	// SyncWAL makes commits durable: the WAL is fsynced at every commit
	// boundary — Txn.Commit, and each auto-commit write issued outside a
	// transaction — before the operation returns. The fsync is issued
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
	// MVCCGCInterval is the cadence of the background version garbage
	// collector, which sweeps stale version-chain tails left behind
	// released snapshots (install-time pruning already bounds chains that
	// keep being written). Zero selects the 2s default; negative disables
	// the background sweep (Engine.VersionGC remains callable).
	MVCCGCInterval time.Duration
	// SlowOpThreshold arms the slow-op log from the start: operations at
	// or above this duration are recorded in the ring and trigger a
	// throttled flight-recorder dump. Zero leaves the log disabled (it
	// can still be armed later via Observability().Slow().SetThreshold,
	// which the shell's `slow DUR` command does).
	SlowOpThreshold time.Duration
	// Placement selects the clustering policy applied to every creating
	// write: "first-parent" (the paper's §2.3 choice, the default),
	// "class" (plain class-segment append, the clustering-study baseline),
	// or "usage" (DSTC/OPCF spirit: cluster members of units the buffer
	// pool demonstrably misses on). See storage.NewPlacement.
	Placement string
	// ReclusterInterval is the cadence of the background reclusterer,
	// which migrates hot composite units onto contiguous pages under the
	// §7 unit-root lock. Zero or negative disables the background loop
	// (DB.ReclusterNow remains callable).
	ReclusterInterval time.Duration
	// ReclusterHotMisses is the per-unit heat (pool misses + write
	// activity attributed to the unit root) at which a unit qualifies for
	// migration — and, under the usage policy, for eager clustering of
	// new members. Zero selects storage.DefaultHotMisses.
	ReclusterHotMisses int
	// ReclusterBatch caps how many units one reclustering pass migrates
	// (default 8): the pass holds no global locks, but bounding it keeps
	// any single pass's WAL volume and lock footprint small.
	ReclusterBatch int
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

	// appends/synced are the log's fsync watermark: appends counts data
	// records logged, synced the append count known covered by a
	// completed fsync. SyncAutoCommit skips the fsync when an earlier
	// sync already covered every record.
	appends atomic.Uint64
	synced  atomic.Uint64
	// commits counts transactions that logged an OpCommit. The metric
	// keeps its storage_shard_ name: the benchmark divides fsyncs and
	// group-commit wait by it.
	commits *obs.Counter

	vers   *version.Manager
	auth   *authz.Store
	txm    *txn.Manager
	idx    *index.Manager
	idxDef [][2]string // persisted (class, attr) index definitions
	reg    *obs.Registry
	gcStop chan struct{} // closed to stop the background version GC
	closed bool

	// Clustering policy state (see recluster.go for the background loop).
	place   storage.Placement
	heat    *obs.UnitHeat
	rec     reclusterObs
	recStop chan struct{} // closed to stop the background reclusterer

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
	d := &DB{opts: opts, cat: schema.NewCatalog(), reg: obs.NewRegistry()}
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
	d.bindReclusterObs()
	d.heat = obs.NewUnitHeat(d.rec.heatTouches, d.rec.unitsTracked)
	var perr error
	if d.place, perr = storage.NewPlacement(opts.Placement, d.heat, uint64(opts.ReclusterHotMisses)); perr != nil {
		return nil, perr
	}
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
	d.store.SetHeat(d.heat, d.engine.PlacementRootOf)
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
	h := &hook{d: d, logged: make(map[core.TxnID]bool)}
	d.engine.SetHook(core.MultiHook{h, d.idx, d.vers})
	d.txm.SetBoundary(h)
	// Profiled transactions attach themselves as the ambient cost sink of
	// the layers that carry no per-operation context (pool, WAL, lock
	// manager); see Txn.Profile and DB.AttachProf.
	d.txm.SetProfHooks(d.AttachProf, func(*obs.ProfCtx) { d.AttachProf(nil) })
	if opts.MVCCGCInterval >= 0 {
		interval := opts.MVCCGCInterval
		if interval == 0 {
			interval = 2 * time.Second
		}
		d.gcStop = make(chan struct{})
		go d.versionGCLoop(interval, d.gcStop)
	}
	if opts.ReclusterInterval > 0 {
		d.recStop = make(chan struct{})
		go d.reclusterLoop(opts.ReclusterInterval, d.recStop)
	}
	return d, nil
}

// versionGCLoop drives the background version garbage collector until
// Close or Abandon. Each tick sweeps the version chains against the
// low-watermark of active snapshot sequences; with no long-lived
// snapshot the store converges to one version per live object.
// The stop channel is passed in rather than read from the struct: Close
// and Abandon nil the field under d.mu, which this goroutine doesn't hold.
func (d *DB) versionGCLoop(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			d.engine.VersionGC()
		}
	}
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
	load := func(name string, fn func(*bytes.Reader) error) error {
		b, err := os.ReadFile(filepath.Join(d.opts.Dir, name))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		return fn(bytes.NewReader(b))
	}
	if err := load(catalogFile, func(r *bytes.Reader) error { return d.cat.Load(r) }); err != nil {
		return err
	}
	if err := load(storeFile, func(r *bytes.Reader) error { return d.store.LoadMeta(r) }); err != nil {
		return err
	}
	if err := load(versionsFile, func(r *bytes.Reader) error { return d.vers.Load(r) }); err != nil {
		return err
	}
	if err := load(authFile, func(r *bytes.Reader) error { return d.auth.Load(r) }); err != nil {
		return err
	}
	if err := load(indexFile, func(r *bytes.Reader) error {
		return json.NewDecoder(r).Decode(&d.idxDef)
	}); err != nil {
		return err
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
// transaction ID it saw. Auto-commit records (Txn == 0) apply
// immediately; a transaction's records are buffered and applied only
// when its OpCommit is reached, so an uncommitted tail — the log of a
// transaction interrupted by a crash, or one that logged an OpAbort — is
// discarded wholesale and can never leave a partial cascade behind.
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
		case storage.OpPut, storage.OpDelete, storage.OpMove:
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

// applyRecord applies one data record to the store.
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
	case storage.OpDelete:
		if err := d.store.Delete(rec.UID); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return err
		}
		return nil
	default: // storage.OpMove
		// A reclusterer migration. The target segment travels by NAME:
		// move targets are usually created after the last checkpoint, so
		// their numeric IDs are not replay-stable. Skip moves of objects
		// that don't exist at this log position (their creating
		// transaction was discarded as an uncommitted tail).
		if !d.store.Has(rec.UID) {
			return nil
		}
		name := string(rec.Data)
		if name == "" {
			return fmt.Errorf("db: OpMove for %v without a segment name", rec.UID)
		}
		seg, err := d.segmentNamed(name)
		if err != nil {
			return err
		}
		return d.store.Move(seg, rec.UID, rec.Near)
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

// hook mirrors engine mutations into the WAL and page store, and (as the
// transaction manager's Boundary) writes the commit/abort records that
// delimit each transaction's group in the log. logged tracks which open
// transactions have emitted at least one record, so read-only
// transactions commit without touching the log and the OpBegin marker is
// written lazily with the transaction's first change.
type hook struct {
	d      *DB
	mu     sync.Mutex
	logged map[core.TxnID]bool
}

// logRecord appends rec, emitting the transaction's OpBegin first when
// this is its first logged change. Auto-commit records (tx == 0) carry no
// Begin/Commit bracket: replay applies them immediately.
func (h *hook) logRecord(tx core.TxnID, rec storage.WALRecord) error {
	d := h.d
	if tx != 0 {
		h.mu.Lock()
		first := !h.logged[tx]
		h.logged[tx] = true
		h.mu.Unlock()
		if first {
			if err := d.wal.Append(storage.WALRecord{Op: storage.OpBegin, Txn: uint64(tx)}); err != nil {
				return err
			}
		}
	}
	if err := d.wal.Append(rec); err != nil {
		return err
	}
	d.appends.Add(1)
	return nil
}

// syncLog fsyncs the WAL through the group committer and raises the
// fsync watermark to the appends it observed before the sync: any record
// appended earlier is covered by this sync or by a concurrent one.
func (d *DB) syncLog() error {
	n := d.appends.Load()
	if err := d.gc.Sync(); err != nil {
		return err
	}
	for {
		cur := d.synced.Load()
		if cur >= n || d.synced.CompareAndSwap(cur, n) {
			return nil
		}
	}
}

// OnWrite implements core.Hook for callers that carry no placement root
// (none in practice — the engine sees the hook as a PlacementHook through
// the MultiHook and always calls OnWritePlaced).
func (h *hook) OnWrite(tx core.TxnID, o *object.Object, near uid.UID) error {
	return h.OnWritePlaced(tx, o, near, uid.Nil)
}

// OnWritePlaced implements core.PlacementHook. The clustering policy maps
// the write's context (§2.3 first parent, placement root) to the neighbor
// hint actually applied — and the WAL records the TRANSFORMED hint, so
// replay reproduces every placement decision without consulting the
// policy. Write activity also feeds per-unit heat: a unit under active
// construction is a unit a cold traversal will soon read.
func (h *hook) OnWritePlaced(tx core.TxnID, o *object.Object, near, root uid.UID) error {
	d := h.d
	seg, err := d.segmentForClass(o.Class())
	if err != nil {
		return err
	}
	hint := d.place.Hint(o.UID(), near, root)
	if !root.IsNil() && root != o.UID() {
		d.heat.Touch(storage.UnitHeatKey(root))
	}
	rec := encoding.EncodeObject(o)
	if d.wal != nil {
		if err := h.logRecord(tx, storage.WALRecord{
			Op: storage.OpPut, Txn: uint64(tx), UID: o.UID(), Seg: seg, Near: hint, Data: rec,
		}); err != nil {
			return err
		}
	}
	return d.store.Put(seg, o.UID(), rec, hint)
}

// SyncAutoCommit implements core.AutoCommitSyncer: an auto-commit
// mutation is its own commit boundary, so under SyncWAL the engine calls
// this once per operation — after the write-through, outside the engine
// latch — and the group committer batches the fsync with any concurrent
// committers. The fsync is skipped when the watermark shows an earlier
// sync already covered every appended record. The watermark read happens
// before the Sync, so any record appended before this call is covered
// either by our Sync or by the completed one that raised the watermark.
func (h *hook) SyncAutoCommit() error {
	d := h.d
	if d.wal == nil || !d.opts.SyncWAL || d.appends.Load() <= d.synced.Load() {
		return nil
	}
	return d.syncLog()
}

func (h *hook) OnDelete(tx core.TxnID, id uid.UID) error {
	d := h.d
	if d.wal != nil {
		// Record the segment the object lived in (best effort: the class
		// assignment when the store no longer has it), so replay tooling
		// sees where the delete landed. Near is meaningless for deletes
		// and stays Nil.
		seg, ok := d.store.SegmentOf(id)
		if !ok {
			seg, _ = d.segmentForClass(id.Class)
		}
		if err := h.logRecord(tx, storage.WALRecord{
			Op: storage.OpDelete, Txn: uint64(tx), UID: id, Seg: seg,
		}); err != nil {
			return err
		}
	}
	if err := d.store.Delete(id); err != nil && !errors.Is(err, storage.ErrNotFound) {
		return err
	}
	return nil
}

// OnCommit implements txn.Boundary: it seals the transaction's record
// group with OpCommit and, under SyncWAL, makes it durable before the
// transaction manager releases any lock (strict 2PL durability point).
// Read-only transactions (nothing logged) skip the log entirely.
func (h *hook) OnCommit(tx core.TxnID) error {
	d := h.d
	if d.wal == nil {
		return nil
	}
	h.mu.Lock()
	wrote := h.logged[tx]
	delete(h.logged, tx)
	h.mu.Unlock()
	if !wrote {
		return nil
	}
	if err := d.wal.Append(storage.WALRecord{Op: storage.OpCommit, Txn: uint64(tx)}); err != nil {
		return err
	}
	d.commits.Inc()
	if d.opts.SyncWAL {
		return d.syncLog()
	}
	return nil
}

// OnAbort implements txn.Boundary: it seals the group with OpAbort so
// replay discards the transaction's records — including the compensating
// undo writes Abort issued, which carry the same transaction ID. No sync:
// an abort that never reaches the log is discarded as an uncommitted
// tail, which is the same outcome.
func (h *hook) OnAbort(tx core.TxnID) error {
	d := h.d
	if d.wal == nil {
		return nil
	}
	h.mu.Lock()
	wrote := h.logged[tx]
	delete(h.logged, tx)
	h.mu.Unlock()
	if !wrote {
		return nil
	}
	return d.wal.Append(storage.WALRecord{Op: storage.OpAbort, Txn: uint64(tx)})
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

func (d *DB) checkpointInner() error {
	if d.closed {
		return ErrClosed
	}
	if d.opts.Dir == "" {
		return nil
	}
	if err := d.wal.Sync(); err != nil {
		return err
	}
	if err := d.pool.FlushAll(); err != nil {
		return err
	}
	save := func(name string, fn func(*bytes.Buffer) error) error {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			return err
		}
		tmp := filepath.Join(d.opts.Dir, name+".tmp")
		if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, filepath.Join(d.opts.Dir, name))
	}
	if err := save(catalogFile, func(b *bytes.Buffer) error { return d.cat.Save(b) }); err != nil {
		return err
	}
	if err := save(storeFile, func(b *bytes.Buffer) error { return d.store.SaveMeta(b) }); err != nil {
		return err
	}
	if err := save(versionsFile, func(b *bytes.Buffer) error { return d.vers.Save(b) }); err != nil {
		return err
	}
	if err := save(authFile, func(b *bytes.Buffer) error { return d.auth.Save(b) }); err != nil {
		return err
	}
	if err := save(indexFile, func(b *bytes.Buffer) error {
		return json.NewEncoder(b).Encode(d.idxDef)
	}); err != nil {
		return err
	}
	return d.wal.Truncate()
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
	d.closed = true
	if d.gcStop != nil {
		close(d.gcStop)
		d.gcStop = nil
	}
	if d.recStop != nil {
		close(d.recStop)
		d.recStop = nil
	}
	if err := d.closeFiles(); firstErr == nil {
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
	d.closed = true
	if d.gcStop != nil {
		close(d.gcStop)
		d.gcStop = nil
	}
	if d.recStop != nil {
		close(d.recStop)
		d.recStop = nil
	}
	return d.closeFiles()
}

// closeFiles releases the WAL and device handles; the first error wins.
func (d *DB) closeFiles() error {
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

// Engine returns the composite-object engine.
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
// excludes an in-flight reclusterer move phase and checkpoints — the
// store's own scan latches segments one at a time, so calling it raw
// while a migration is mid-unit can double-count a record that has
// landed in its target segment but not yet left its source.
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
