package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/lock"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/uid"
	"repro/internal/value"
)

// Concurrent mode: N goroutine workers drive seeded op streams against one
// database through explicit transactions, exercising the composite-unit
// lock admission under real parallelism. Checking splits in two:
//
//   - At each commit, the committed transaction's recorded operations are
//     re-executed against the shared model under the commit mutex, in
//     commit order, and per-op verdicts (and delete casualty lists) must
//     match what the engine said during live execution. Strict 2PL makes
//     this sound: every object an op's verdict depends on stays X-locked
//     by the transaction from the op until commit, so no other committed
//     transaction can have changed it in between.
//
//   - At quiescent points (a barrier every few transactions per worker,
//     and at the end), the full engine state is compared against the model
//     with compareState, plus an Integrity scan.
//
// The commit-order sequence of transactions is also recorded as a
// slot-based trace; replaying it sequentially through RunTrace must be
// clean, which checks that the serialization the locks produced is a real
// one-at-a-time history (deterministic replay of the commit order).
//
// Workers never issue Evolve, Checkpoint, or Crash ops — those are
// whole-database operations the harness runs only at quiescent points (the
// final crash/recovery round on durable runs).

// ConcurrentConfig configures one concurrent simulation run.
type ConcurrentConfig struct {
	// Seed drives every worker's generator (worker k derives its own rng
	// from Seed and k).
	Seed int64
	// Workers is the number of concurrent writer goroutines (default 4).
	Workers int
	// Ops is the number of generated operations per worker (default 200).
	Ops int
	// Durable runs against an on-disk database with WAL sync and ends with
	// a crash/recovery round asserting the committed model survived.
	Durable bool
	// Dir is the parent directory for durable runs' temp dirs.
	Dir string
	// TxnsPerRound is the quiescent-check cadence: every worker runs this
	// many transactions, then all workers barrier and the full state is
	// checked (default 8).
	TxnsPerRound int
	// Readers is the number of read-only snapshot goroutines running
	// alongside the writers (default 0). Each reader loops: begin an MVCC
	// snapshot, look up the model state recorded for the snapshot's commit
	// boundary, and require the snapshot to match it exactly — the
	// snapshot-consistency check (every read observes exactly the state at
	// some commit boundary no newer than its snapshot seq).
	Readers int
	// SharedRoots is the number of pre-created composite roots all workers
	// mutate (default 6). They are what makes workers actually contend —
	// without them each worker would live in its own disjoint hierarchy.
	SharedRoots int
	// Net drives every worker through a real TCP client against an
	// in-process orion-server instead of calling txn.Manager directly:
	// the same op streams, model checks, and (on durable runs) crash
	// finale, but with the wire protocol and per-connection sessions in
	// the loop. The server is killed before the crash so recovery also
	// covers sessions dying mid-flight.
	Net bool
	// Recluster runs the background reclusterer (usage placement, a
	// milliseconds-scale tick, a low heat threshold) underneath the
	// workers, so online unit migrations race real transactions. Every
	// quiescent check then also verifies the store's exactly-one-location
	// invariant, and on durable runs the crash finale covers recovery of
	// a log full of interleaved mutations and OpMove records.
	Recluster bool
}

// ConcurrentResult reports one concurrent run.
type ConcurrentResult struct {
	Committed           int    // transactions committed
	Aborted             int    // deliberate aborts (undo under concurrency)
	DeadlockRetries     int    // transactions retried after a deadlock abort
	SnapshotReads       int    // snapshot views verified against the commit history
	ReclusterMigrations uint64 // units migrated by the background reclusterer
	Failure             *Failure
	Trace               []Op // commit-order trace, sequentially replayable
}

// execRec is one live-executed operation with everything needed to
// re-execute it against the model at commit time: resolved UIDs (slot
// indirection is gone by then) and the engine's verdict.
type execRec struct {
	op      Op
	engErr  error
	id      uid.UID  // OpNew: created UID (Nil on failure); others: target
	parents []Parent // OpNew
	childID uid.UID  // OpAttach/OpDetach
	refs    []Ref    // OpSetRefs
	deleted []uid.UID
	slot    slotRec // OpNew: assignment to apply on commit
}

type charness struct {
	cfg ConcurrentConfig
	dir string
	d   *db.DB

	// srv is the in-process TCP server net-mode workers dial (nil when
	// embedded). It shares h.d, so readers and quiescent checks still
	// look at the same engine the wire mutates.
	srv *server.Server

	// commitMu serializes commit + model re-execution + trace append, so
	// the model is applied in true commit order (conflicting transactions
	// cannot both be inside Commit: locks release only after it returns).
	commitMu sync.Mutex
	model    *Model
	trace    []Op

	// slots: [0,SharedRoots) are the shared roots, written once during
	// setup and read-only afterwards; worker k owns the half-open range
	// [SharedRoots+k*stride, SharedRoots+(k+1)*stride) and is its only
	// reader and writer.
	slots []slotRec

	// history records, per MVCC commit seq, the model state at that
	// boundary. Writers record under commitMu (Commit and the recording
	// are one critical section), so a reader that begins a snapshot at
	// seq S and then barriers on commitMu is guaranteed to find
	// history[S] — or a run failure already reported.
	histMu  sync.Mutex
	history map[uint64]*Model

	committed atomic.Int64
	aborted   atomic.Int64
	retries   atomic.Int64
	snapReads atomic.Int64

	failMu sync.Mutex
	fail   *Failure
}

func (h *charness) setFailure(f *Failure) {
	h.failMu.Lock()
	if h.fail == nil {
		h.fail = f
	}
	h.failMu.Unlock()
}

func (h *charness) failure() *Failure {
	h.failMu.Lock()
	defer h.failMu.Unlock()
	return h.fail
}

type cworker struct {
	h    *charness
	id   int
	rng  *rand.Rand
	drv  txnDriver
	txns [][]Op
	next int
}

// RunConcurrent executes one concurrent simulation and returns its report.
func RunConcurrent(cfg ConcurrentConfig) *ConcurrentResult {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 200
	}
	if cfg.TxnsPerRound <= 0 {
		cfg.TxnsPerRound = 8
	}
	if cfg.SharedRoots <= 0 {
		cfg.SharedRoots = 6
	}
	h := &charness{cfg: cfg, model: newModel(simClassDefs())}
	res := &ConcurrentResult{}
	fail := func(msg string) *ConcurrentResult {
		res.Failure = &Failure{Seed: cfg.Seed, Step: -1, Msg: msg, Trace: h.trace}
		return res
	}
	if cfg.Durable {
		dir, err := os.MkdirTemp(cfg.Dir, "simconc-")
		if err != nil {
			return fail("mkdir: " + err.Error())
		}
		h.dir = dir
		defer os.RemoveAll(dir)
	}
	if err := h.open(); err != nil {
		return fail("open: " + err.Error())
	}
	defer func() {
		if h.d != nil {
			h.d.Abandon()
		}
	}()

	workers, err := h.buildWorkers()
	if err != nil {
		return fail("setup: " + err.Error())
	}

	// Attach each worker's engine transport: direct txn.Manager calls, or
	// a dialed client session against an in-process server (-net).
	// shutdownNet is idempotent and runs both deferred (failure paths)
	// and explicitly before the crash finale — the server must be gone
	// (its sessions torn down) before Abandon rips the store out from
	// under it.
	if cfg.Net {
		if err := h.startServer(); err != nil {
			return fail("server: " + err.Error())
		}
	}
	shutdownNet := func() {
		for _, w := range workers {
			if w.drv != nil {
				w.drv.Close()
				w.drv = nil
			}
		}
		if h.srv != nil {
			h.srv.Close()
			h.srv = nil
		}
	}
	defer shutdownNet()
	for _, w := range workers {
		if cfg.Net {
			drv, err := dialDriver(h.srv.Addr())
			if err != nil {
				return fail("dial: " + err.Error())
			}
			w.drv = drv
		} else {
			w.drv = &localDriver{m: h.d.Txns()}
		}
	}

	// Snapshot readers: record the post-setup state as the baseline
	// boundary, then run until the writers drain.
	h.history = map[uint64]*Model{h.d.Engine().CommitSeq(): h.model.Clone()}
	stopReaders := make(chan struct{})
	var readerWG sync.WaitGroup
	for k := 0; k < cfg.Readers; k++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			h.runReader(stopReaders)
		}()
	}

	for h.failure() == nil {
		var wg sync.WaitGroup
		active := false
		for _, w := range workers {
			if w.next >= len(w.txns) {
				continue
			}
			active = true
			wg.Add(1)
			go func(w *cworker) {
				defer wg.Done()
				w.runRound()
			}(w)
		}
		if !active {
			break
		}
		wg.Wait()
		if f := h.quiescentCheck(); f != nil {
			h.setFailure(f)
		}
	}

	close(stopReaders)
	readerWG.Wait()

	res.Committed = int(h.committed.Load())
	res.Aborted = int(h.aborted.Load())
	res.DeadlockRetries = int(h.retries.Load())
	res.SnapshotReads = int(h.snapReads.Load())
	if cfg.Recluster {
		res.ReclusterMigrations = h.d.ReclusterStatus().Migrations
	}
	res.Trace = h.trace
	if f := h.failure(); f != nil {
		f.Trace = h.trace
		res.Failure = f
		return res
	}

	// Durable runs: crash without flushing, reopen through recovery, and
	// require the recovered state to equal the committed model. In net
	// mode the server is killed first — the crash covers the whole stack.
	shutdownNet()
	if cfg.Durable {
		if err := h.d.Abandon(); err != nil {
			return fail("abandon: " + err.Error())
		}
		h.d = nil
		if err := h.open(); err != nil {
			return fail("recovery failed: " + err.Error())
		}
		if msg := compareState(h.d.Engine(), h.model); msg != "" {
			return fail("post-recovery divergence: " + msg)
		}
		if cfg.Recluster {
			// The crash finale's log interleaves mutations with OpMove
			// records; recovery must land every object in one place.
			if err := h.d.CheckPlacement(); err != nil {
				return fail("post-recovery placement: " + err.Error())
			}
		}
	}
	if err := h.d.Close(); err != nil {
		return fail("close: " + err.Error())
	}
	h.d = nil

	// Deterministic replay: the commit-order trace must replay cleanly as
	// a sequential history (in memory — durability was checked above).
	if f := RunTrace(Config{Seed: cfg.Seed}, h.trace); f != nil {
		f.Msg = "serialized replay diverged: " + f.Msg
		res.Failure = f
	}
	return res
}

func (h *charness) open() error {
	opts := db.Options{}
	if h.cfg.Durable {
		opts.Dir = h.dir
		opts.SyncWAL = true
	}
	if h.cfg.Recluster {
		// Aggressive knobs on purpose: a near-zero threshold and a
		// milliseconds tick make migrations race the workers constantly,
		// which is the point of the soak.
		opts.Placement = storage.PlacementUsage
		opts.ReclusterInterval = time.Millisecond
		opts.ReclusterHotMisses = 2
	}
	d, err := db.Open(opts)
	if err != nil {
		return err
	}
	if err := defineSchema(d); err != nil {
		d.Abandon()
		return err
	}
	h.d = d
	return nil
}

// startServer boots the in-process TCP front-end for net mode on an
// ephemeral port.
func (h *charness) startServer() error {
	srv := server.New(h.d, server.Config{
		Addr:     "127.0.0.1:0",
		MaxConns: h.cfg.Workers + 8,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	h.srv = srv
	return nil
}

// buildWorkers creates the shared roots, generates and remaps each
// worker's op stream, and chunks it into 1–3-op transactions.
func (h *charness) buildWorkers() ([]*cworker, error) {
	cfg := h.cfg
	// Per-worker op streams: mutations only; evolution, checkpoints and
	// crashes are quiescent-point operations.
	streams := make([][]Op, cfg.Workers)
	stride := 0
	for k := 0; k < cfg.Workers; k++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(k)*7919 + 1))
		var ops []Op
		for _, op := range Generate(rng, GenConfig{Ops: cfg.Ops, MaxObjects: 40}) {
			switch op.Kind {
			case OpNew, OpAttach, OpDetach, OpSetTag, OpSetRefs, OpDelete:
				ops = append(ops, op)
			}
		}
		streams[k] = ops
		for _, op := range ops {
			for _, s := range append([]int{op.Slot, op.Child}, op.Refs...) {
				if s+1 > stride {
					stride = s + 1
				}
			}
			for _, p := range op.Parents {
				if p.Slot+1 > stride {
					stride = p.Slot + 1
				}
			}
		}
	}
	h.slots = make([]slotRec, cfg.SharedRoots+cfg.Workers*stride)

	// Shared roots, cycling through the four reference-kind classes; the
	// OpNew prefix in the trace recreates them on sequential replay.
	for i := 0; i < cfg.SharedRoots; i++ {
		class := parentClasses[i%len(parentClasses)]
		tag := int64(i)
		o, err := h.d.Make(class, map[string]value.Value{"Tag": value.Int(tag)})
		if err != nil {
			return nil, err
		}
		if err := h.model.New(o.UID(), class, tag, nil); err != nil {
			return nil, err
		}
		h.slots[i] = slotRec{id: o.UID(), class: class, set: true}
		h.trace = append(h.trace, Op{Kind: OpNew, Slot: i, Class: class, Tag: tag})
	}

	workers := make([]*cworker, cfg.Workers)
	for k := 0; k < cfg.Workers; k++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(k)*7919 + 2))
		base := cfg.SharedRoots + k*stride
		remap := func(s int) int { return base + s }
		// Redirect a fraction of mutation targets at the shared roots so
		// workers contend on real composite hierarchies (and deadlock).
		redirect := func(s int) int {
			if rng.Float64() < 0.2 {
				return rng.Intn(cfg.SharedRoots)
			}
			return remap(s)
		}
		var ops []Op
		for _, op := range streams[k] {
			op.Refs = append([]int(nil), op.Refs...)
			op.Parents = append([]OpParent(nil), op.Parents...)
			for i := range op.Refs {
				op.Refs[i] = remap(op.Refs[i])
			}
			switch op.Kind {
			case OpNew:
				op.Slot = remap(op.Slot)
				for i := range op.Parents {
					op.Parents[i].Slot = redirect(op.Parents[i].Slot)
				}
			case OpAttach, OpDetach:
				op.Slot = redirect(op.Slot)
				op.Child = remap(op.Child)
			case OpSetTag:
				op.Slot = redirect(op.Slot)
			default: // OpSetRefs, OpDelete stay in the worker's range
				op.Slot = remap(op.Slot)
			}
			ops = append(ops, op)
		}
		// Chunk into explicit transactions of 1–3 ops.
		var txns [][]Op
		for len(ops) > 0 {
			n := 1 + rng.Intn(3)
			if n > len(ops) {
				n = len(ops)
			}
			txns = append(txns, ops[:n])
			ops = ops[n:]
		}
		workers[k] = &cworker{h: h, id: k, rng: rng, txns: txns}
	}
	return workers, nil
}

func (h *charness) historyAt(seq uint64) *Model {
	h.histMu.Lock()
	defer h.histMu.Unlock()
	return h.history[seq]
}

// runReader loops begin-snapshot / verify / release until stop closes.
// Verification is the snapshot-consistency check: the snapshot must equal
// the model state recorded at its commit boundary, no matter how many
// writers are mid-transaction (or mid-commit) around it.
func (h *charness) runReader(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if h.failure() != nil {
			return
		}
		snap := h.d.Txns().BeginSnapshot()
		seq := snap.Seq()
		view := h.historyAt(seq)
		if view == nil {
			// The committer that installed boundary seq still holds
			// commitMu (recording happens inside the commit critical
			// section); barrier on it and look again.
			h.commitMu.Lock()
			h.commitMu.Unlock() //nolint:staticcheck // empty section used as a barrier
			view = h.historyAt(seq)
		}
		if view == nil {
			snap.Release()
			if h.failure() == nil {
				h.setFailure(&Failure{Seed: h.cfg.Seed, Step: -1,
					Msg: fmt.Sprintf("reader: snapshot seq %d matches no recorded commit boundary", seq)})
			}
			return
		}
		if msg := compareSnapshotState(snap, view); msg != "" {
			snap.Release()
			h.setFailure(&Failure{Seed: h.cfg.Seed, Step: -1,
				Msg: fmt.Sprintf("snapshot divergence at seq %d: %s", seq, msg)})
			return
		}
		snap.Release()
		h.snapReads.Add(1)
		time.Sleep(200 * time.Microsecond) // yield so readers don't starve writers
	}
}

// compareSnapshotState is compareState through a snapshot handle: object
// count, Tag values, ordered forward reference lists, reverse references
// with D/X flags, and partition sets, all resolved at the snapshot's
// boundary. Extents and topology scans are engine-level (live-state)
// checks and stay with quiescentCheck.
func compareSnapshotState(snap *core.Snapshot, view *Model) string {
	if snap.Len() != len(view.objs) {
		return fmt.Sprintf("object count: snapshot=%d model=%d", snap.Len(), len(view.objs))
	}
	ids := make([]uid.UID, 0, len(view.objs))
	for id := range view.objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].Less(ids[b]) })
	for _, id := range ids {
		mo := view.objs[id]
		o, err := snap.Get(id)
		if err != nil {
			return fmt.Sprintf("get %v: %v", id, err)
		}
		tv := o.Get("Tag")
		if mo.HasTag {
			got, ok := tv.AsInt()
			if !ok || got != mo.Tag {
				return fmt.Sprintf("%v Tag: snapshot %v, model %d", id, tv, mo.Tag)
			}
		} else if !tv.IsNil() {
			return fmt.Sprintf("%v Tag: snapshot %v, model unset", id, tv)
		}
		cl := view.classes[mo.Class]
		for _, sp := range cl.Attrs {
			if sp.Domain == "" {
				continue
			}
			got := o.Get(sp.Name).Refs(nil)
			if want := mo.Refs[sp.Name]; !equalUIDs(got, want) {
				return fmt.Sprintf("%v.%s forward refs: snapshot %v, model %v", id, sp.Name, got, want)
			}
		}
		gotRev := make([]revRef, 0, len(o.Reverse()))
		for _, r := range o.Reverse() {
			gotRev = append(gotRev, revRef{Parent: r.Parent, Dependent: r.Dependent, Exclusive: r.Exclusive})
		}
		wantRev := append([]revRef(nil), mo.Rev...)
		sortRevs(gotRev)
		sortRevs(wantRev)
		if len(gotRev) != len(wantRev) {
			return fmt.Sprintf("%v reverse refs: snapshot %v, model %v", id, gotRev, wantRev)
		}
		for k := range gotRev {
			if gotRev[k] != wantRev[k] {
				return fmt.Sprintf("%v reverse refs: snapshot %v, model %v", id, gotRev, wantRev)
			}
		}
		parts, err := snap.Partitions(id)
		if err != nil {
			return fmt.Sprintf("partitions %v: %v", id, err)
		}
		for _, p := range []struct {
			name      string
			got       []uid.UID
			dep, excl bool
		}{
			{"IX", parts.IX, false, true},
			{"DX", parts.DX, true, true},
			{"IS", parts.IS, false, false},
			{"DS", parts.DS, true, false},
		} {
			if want := mo.partition(p.dep, p.excl); !sameUIDSet(p.got, want) {
				return fmt.Sprintf("%v %s partition: snapshot %v, model %v", id, p.name, p.got, want)
			}
		}
	}
	return ""
}

// quiescentCheck runs with no worker active: full state compare plus the
// engine-wide integrity scan.
func (h *charness) quiescentCheck() *Failure {
	if msg := compareState(h.d.Engine(), h.model); msg != "" {
		return &Failure{Seed: h.cfg.Seed, Step: -1, Msg: "quiescent divergence: " + msg}
	}
	if v := h.d.Engine().Integrity(); len(v) != 0 {
		return &Failure{Seed: h.cfg.Seed, Step: -1, Msg: fmt.Sprintf("integrity violations: %v", v)}
	}
	if h.cfg.Recluster {
		// Zero lost objects: however many units the background reclusterer
		// has migrated (or is migrating — the check serializes with the
		// move phase), every object is readable from exactly one location.
		if err := h.d.CheckPlacement(); err != nil {
			return &Failure{Seed: h.cfg.Seed, Step: -1, Msg: "placement check: " + err.Error()}
		}
	}
	return nil
}

func (w *cworker) runRound() {
	for n := 0; n < w.h.cfg.TxnsPerRound && w.next < len(w.txns); n++ {
		if w.h.failure() != nil {
			return
		}
		if f := w.runTxn(w.txns[w.next]); f != nil {
			w.h.setFailure(f)
			return
		}
		w.next++
	}
}

func (w *cworker) fail(op Op, msg string) *Failure {
	return &Failure{Seed: w.h.cfg.Seed, Step: -1, Op: op,
		Msg: fmt.Sprintf("worker %d: %s", w.id, msg)}
}

// runTxn executes one transaction, retrying from scratch when the lock
// manager picks it as a deadlock victim (its undo has already rolled the
// partial effects back, so a fresh attempt starts clean). Retries keep
// the first attempt's transaction identity so the youngest-victim policy
// cannot starve a retrier that keeps losing to newer transactions.
func (w *cworker) runTxn(ops []Op) *Failure {
	const maxAttempts = 8
	id := w.h.d.Txns().Reserve()
	for attempt := 0; ; attempt++ {
		retry, f := w.attemptTxn(id, ops)
		if f != nil {
			return f
		}
		if !retry {
			return nil
		}
		w.h.retries.Add(1)
		if attempt+1 >= maxAttempts {
			return w.fail(Op{}, fmt.Sprintf("transaction still deadlocking after %d attempts", maxAttempts))
		}
		// Exponential backoff: an immediate retry can win the scheduler
		// race against the parked survivor and re-form the identical
		// cycle — with itself as the victim again — until the attempt
		// budget is gone.
		time.Sleep(time.Duration(1<<attempt) * time.Millisecond)
	}
}

// resolve looks a slot up through the transaction-local overlay first:
// OpNew assignments become visible to later ops of the same transaction
// but reach the shared table only on commit.
func (w *cworker) resolve(overlay map[int]slotRec, s int) (slotRec, bool) {
	if rec, ok := overlay[s]; ok {
		return rec, true
	}
	if s < 0 || s >= len(w.h.slots) || !w.h.slots[s].set {
		return slotRec{}, false
	}
	return w.h.slots[s], true
}

func (w *cworker) attemptTxn(id lock.TxID, ops []Op) (retry bool, f *Failure) {
	h := w.h
	if err := w.drv.Begin(id); err != nil {
		return false, w.fail(Op{}, "begin: "+err.Error())
	}
	overlay := map[int]slotRec{}
	var recs []execRec

	abortForRetry := func() (bool, *Failure) {
		if err := w.drv.Abort(); err != nil {
			return false, w.fail(Op{}, "abort after deadlock: "+err.Error())
		}
		return true, nil
	}

	for _, op := range ops {
		rec := execRec{op: op}
		skip := false
		switch op.Kind {
		case OpNew:
			var parents []core.ParentSpec
			for _, p := range op.Parents {
				pr, ok := w.resolve(overlay, p.Slot)
				if !ok {
					skip = true
					break
				}
				parents = append(parents, core.ParentSpec{Parent: pr.id, Attr: p.Attr})
				rec.parents = append(rec.parents, Parent{ID: pr.id, Class: pr.class, Attr: p.Attr})
			}
			if skip {
				break
			}
			nid, err := w.drv.New(op.Class, op.Tag, parents)
			rec.engErr = err
			if err == nil {
				rec.id = nid
				rec.slot = slotRec{id: nid, class: op.Class, set: true}
				overlay[op.Slot] = rec.slot
			}
		case OpAttach, OpDetach:
			p, okp := w.resolve(overlay, op.Slot)
			c, okc := w.resolve(overlay, op.Child)
			if !okp || !okc {
				skip = true
				break
			}
			rec.id, rec.childID = p.id, c.id
			if op.Kind == OpAttach {
				rec.engErr = w.drv.Attach(p.id, op.Attr, c.id)
			} else {
				rec.engErr = w.drv.Detach(p.id, op.Attr, c.id)
			}
		case OpSetTag:
			r, ok := w.resolve(overlay, op.Slot)
			if !ok {
				skip = true
				break
			}
			rec.id = r.id
			rec.engErr = w.drv.SetTag(r.id, op.Tag)
		case OpSetRefs:
			r, ok := w.resolve(overlay, op.Slot)
			if !ok {
				skip = true
				break
			}
			var ids []uid.UID
			for _, rs := range op.Refs {
				rr, okr := w.resolve(overlay, rs)
				if !okr {
					skip = true
					break
				}
				rec.refs = append(rec.refs, Ref{ID: rr.id, Class: rr.class})
				ids = append(ids, rr.id)
			}
			if skip {
				break
			}
			rec.id = r.id
			// refsValue semantics: a collection on the single-valued
			// Main is sent anyway — both engine and model must reject it.
			rec.engErr = w.drv.SetRefs(r.id, op.Attr, ids)
		case OpDelete:
			r, ok := w.resolve(overlay, op.Slot)
			if !ok {
				skip = true
				break
			}
			rec.id = r.id
			rec.deleted, rec.engErr = w.drv.Delete(r.id)
		}
		if skip {
			continue
		}
		if rec.engErr != nil && errors.Is(rec.engErr, errNetFatal) {
			return false, w.fail(op, "transport: "+rec.engErr.Error())
		}
		if rec.engErr != nil && errors.Is(rec.engErr, lock.ErrDeadlock) {
			return abortForRetry()
		}
		recs = append(recs, rec)
	}

	// Deliberate aborts exercise undo interleaved with other writers.
	if w.rng.Float64() < 0.15 {
		if err := w.drv.Abort(); err != nil {
			return false, w.fail(Op{}, "abort: "+err.Error())
		}
		h.aborted.Add(1)
		return false, nil
	}

	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	if err := w.drv.Commit(); err != nil {
		return false, w.fail(Op{}, "commit: "+err.Error())
	}
	// Re-execute against the model in commit order and compare verdicts.
	// Like the sequential harness, each op gets a fresh clone that is kept
	// only on success — a failing model op may leave partial effects.
	clone := h.model
	for _, rec := range recs {
		next := clone.Clone()
		var modErr error
		var mismatch string
		switch rec.op.Kind {
		case OpNew:
			modErr = next.New(rec.id, rec.op.Class, rec.op.Tag, rec.parents)
		case OpAttach:
			modErr = next.attach(rec.id, rec.op.Attr, rec.childID)
		case OpDetach:
			modErr = next.detach(rec.id, rec.op.Attr, rec.childID)
		case OpSetTag:
			modErr = next.setTag(rec.id, rec.op.Tag)
		case OpSetRefs:
			modErr = next.setRefs(rec.id, rec.op.Attr, rec.refs)
		case OpDelete:
			var modDel []uid.UID
			modDel, modErr = next.Delete(rec.id)
			if rec.engErr == nil && modErr == nil && !sameUIDSet(rec.deleted, modDel) {
				mismatch = fmt.Sprintf("casualty list: engine %v, model %v",
					sortedUIDs(rec.deleted), sortedUIDs(modDel))
			}
		}
		if (rec.engErr == nil) != (modErr == nil) {
			return false, w.fail(rec.op, fmt.Sprintf("commit-order verdict mismatch: engine err=%v, model err=%v",
				rec.engErr, modErr))
		}
		if mismatch != "" {
			return false, w.fail(rec.op, mismatch)
		}
		if modErr == nil {
			clone = next
		}
	}
	h.model = clone
	// Record the model at this transaction's commit boundary for the
	// snapshot readers. Still under commitMu: Commit installed the version
	// boundary, so CommitSeq is exactly this transaction's seq (or
	// unchanged if it had no effective writes — the overwrite is then a
	// no-op state-wise).
	h.histMu.Lock()
	h.history[h.d.Engine().CommitSeq()] = clone.Clone()
	h.histMu.Unlock()
	h.trace = append(h.trace, Op{Kind: OpBegin})
	h.trace = append(h.trace, ops...)
	h.trace = append(h.trace, Op{Kind: OpCommit})
	for s, rec := range overlay {
		h.slots[s] = rec
	}
	h.committed.Add(1)
	return false, nil
}
