package sim

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/value"
)

// Config configures one simulation run.
type Config struct {
	// Seed drives the workload generator (and is printed in reports).
	Seed int64
	// Ops is the number of generated operations (default 500).
	Ops int
	// Durable runs against an on-disk database with per-write WAL sync;
	// crash ops then abandon the files and reopen through recovery.
	Durable bool
	// Dir is the parent directory for durable runs' temp dirs ("" = the
	// system temp dir). Every run — including every shrink replay — gets
	// a fresh subdirectory.
	Dir string
	// Evolution enables schema-evolution ops (I1–I4, D1–D3).
	Evolution bool
	// Checkpoint enables checkpoint ops.
	Checkpoint bool
	// Crash enables crash ops (ignored unless Durable).
	Crash bool
	// IntegrityEvery runs the engine-wide Integrity scan every N steps
	// (default 8). Per-object topology checks run every step regardless.
	IntegrityEvery int
	// MaxObjects caps the live population (default 120).
	MaxObjects int
	// ShrinkBudget bounds the number of replays during minimization
	// (default 200).
	ShrinkBudget int
	// Sabotage, when non-nil, is called after every successful engine
	// Delete with the engine and the casualty list. Harness self-tests
	// use it to emulate engine bugs (e.g. a Deletion-Rule violation) and
	// assert the checker catches them. Keep it stateless: shrinking
	// replays the trace many times.
	Sabotage func(eng *core.Engine, deleted []uid.UID)
}

// Failure describes a divergence between engine and model (or an
// internal invariant violation), with everything needed to reproduce it.
type Failure struct {
	Seed  int64
	Step  int // index into Trace; len(Trace) = end-of-trace checks
	Op    Op
	Msg   string
	Trace []Op
}

// Report renders the failure with the seed and the (minimized) op trace.
func (f *Failure) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim failure: seed=%d step=%d op=%q\n  %s\n", f.Seed, f.Step, formatOp(f.Op), f.Msg)
	fmt.Fprintf(&b, "trace (%d ops):\n", len(f.Trace))
	for _, op := range f.Trace {
		fmt.Fprintf(&b, "  %s\n", formatOp(op))
	}
	b.WriteString("replay: save the trace and run simrunner -replay <file> with matching flags\n")
	return b.String()
}

// Run generates a workload from cfg.Seed, executes it, and shrinks any
// failure to a minimal trace. Returns nil when the run is clean.
func Run(cfg Config) *Failure {
	if cfg.Ops <= 0 {
		cfg.Ops = 500
	}
	ops := Generate(rand.New(rand.NewSource(cfg.Seed)), GenConfig{
		Ops:        cfg.Ops,
		Evolution:  cfg.Evolution,
		Checkpoint: cfg.Checkpoint,
		Crash:      cfg.Crash && cfg.Durable,
		MaxObjects: cfg.MaxObjects,
	})
	f := RunTrace(cfg, ops)
	if f == nil {
		return nil
	}
	return ShrinkFailure(cfg, ops, f)
}

// slotRec maps a trace slot to the UID the engine assigned to it.
type slotRec struct {
	id    uid.UID
	class string
	set   bool
}

type harness struct {
	cfg     Config
	dir     string
	d       *db.DB
	model   *Model // committed state
	working *Model // non-nil while a transaction is open
	tx      *txn.Txn
	slots   []slotRec
}

// RunTrace executes a fixed op sequence and returns the first failure
// (with Trace set to ops), or nil. Ops referencing slots never assigned
// — their OpNew failed or was removed by shrinking — are skipped
// deterministically on both sides.
func RunTrace(cfg Config, ops []Op) *Failure {
	h := &harness{cfg: cfg, model: newModel(simClassDefs())}
	infra := func(msg string) *Failure {
		return &Failure{Seed: cfg.Seed, Step: -1, Msg: msg, Trace: ops}
	}
	if cfg.Durable {
		dir, err := os.MkdirTemp(cfg.Dir, "simrun-")
		if err != nil {
			return infra("mkdir: " + err.Error())
		}
		h.dir = dir
		defer os.RemoveAll(dir)
	}
	if err := h.open(); err != nil {
		return infra("open: " + err.Error())
	}
	defer func() {
		if h.d != nil {
			h.d.Abandon()
		}
	}()
	maxSlot := 0
	for _, op := range ops {
		for _, s := range append([]int{op.Slot, op.Child}, op.Refs...) {
			if s > maxSlot {
				maxSlot = s
			}
		}
		for _, p := range op.Parents {
			if p.Slot > maxSlot {
				maxSlot = p.Slot
			}
		}
	}
	h.slots = make([]slotRec, maxSlot+1)
	for i, op := range ops {
		if f := h.step(i, op); f != nil {
			f.Trace = ops
			return f
		}
	}
	// End of trace: abort any open transaction, then final checks and —
	// durable runs — a final crash/recovery round asserting durability.
	n := len(ops)
	endOp := Op{Kind: OpAbort}
	if h.tx != nil {
		if err := h.tx.Abort(); err != nil {
			f := h.failOp(n, endOp, "final abort: "+err.Error())
			f.Trace = ops
			return f
		}
		h.tx, h.working = nil, nil
	}
	if f := h.check(n, endOp); f != nil {
		f.Trace = ops
		return f
	}
	if f := h.integrity(n, endOp); f != nil {
		f.Trace = ops
		return f
	}
	if h.cfg.Durable {
		if f := h.crash(n); f != nil {
			f.Trace = ops
			return f
		}
	}
	if err := h.d.Close(); err != nil {
		f := h.failOp(n, endOp, "close: "+err.Error())
		f.Trace = ops
		return f
	}
	h.d = nil
	return nil
}

func (h *harness) open() error {
	opts := db.Options{}
	if h.cfg.Durable {
		opts.Dir = h.dir
		opts.SyncWAL = true
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

// defineSchema installs the simulation classes unless the catalog already
// has them (recovered databases keep their catalog).
func defineSchema(d *db.DB) error {
	if _, err := d.Catalog().Class(classLeaf); err == nil {
		return nil
	}
	for _, mc := range simClassDefs() {
		def := schema.ClassDef{Name: mc.Name}
		for _, a := range mc.Attrs {
			var spec schema.AttrSpec
			switch {
			case a.Domain == "":
				spec = schema.NewAttr(a.Name, schema.IntDomain)
			case a.SetOf:
				spec = schema.NewCompositeSetAttr(a.Name, a.Domain).
					WithExclusive(a.Exclusive).WithDependent(a.Dependent)
			default:
				spec = schema.NewCompositeAttr(a.Name, a.Domain).
					WithExclusive(a.Exclusive).WithDependent(a.Dependent)
			}
			def.Attributes = append(def.Attributes, spec)
		}
		if _, err := d.DefineClass(def); err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) failOp(i int, op Op, msg string) *Failure {
	return &Failure{Seed: h.cfg.Seed, Step: i, Op: op, Msg: msg}
}

func (h *harness) view() *Model {
	if h.working != nil {
		return h.working
	}
	return h.model
}

func (h *harness) slot(i int) (slotRec, bool) {
	if i < 0 || i >= len(h.slots) || !h.slots[i].set {
		return slotRec{}, false
	}
	return h.slots[i], true
}

// step applies one op to both sides and runs the per-step checks.
// Malformed placements (begin inside a txn, commit outside one,
// evolve/checkpoint inside a txn, crash on an in-memory run) are skipped,
// deterministically, so shrunk traces replay identically.
func (h *harness) step(i int, op Op) *Failure {
	switch op.Kind {
	case OpBegin:
		if h.tx == nil {
			h.tx = h.d.Begin()
			h.working = h.model.Clone()
		}
	case OpCommit:
		if h.tx != nil {
			if err := h.tx.Commit(); err != nil {
				return h.failOp(i, op, "commit: "+err.Error())
			}
			h.model, h.working, h.tx = h.working, nil, nil
		}
	case OpAbort:
		if h.tx != nil {
			if err := h.tx.Abort(); err != nil {
				return h.failOp(i, op, "abort: "+err.Error())
			}
			h.working, h.tx = nil, nil
		}
	case OpEvolve:
		if h.tx == nil {
			if f := h.evolve(i, op); f != nil {
				return f
			}
		}
	case OpCheckpoint:
		// An open transaction stays open across the checkpoint: its
		// group is not logged yet, so the checkpoint persists none of it.
		if err := h.d.Checkpoint(); err != nil {
			return h.failOp(i, op, "checkpoint: "+err.Error())
		}
	case OpCrash:
		if h.cfg.Durable {
			// A crash may land mid-transaction: the open transaction is
			// simply dropped — no abort, no commit — and its WAL group is
			// left unsealed. Recovery must discard that uncommitted tail
			// and come back at the last committed model (DESIGN.md §10).
			if h.tx != nil {
				h.working, h.tx = nil, nil
			}
			if f := h.crash(i); f != nil {
				return f
			}
		}
	default:
		if f := h.mutate(i, op); f != nil {
			return f
		}
	}
	if f := h.check(i, op); f != nil {
		return f
	}
	every := h.cfg.IntegrityEvery
	if every <= 0 {
		every = 8
	}
	if i%every == 0 {
		if f := h.integrity(i, op); f != nil {
			return f
		}
	}
	return nil
}

// mutate runs one data operation through the transaction layer (an
// implicit single-op transaction when none is open) and through a clone
// of the model, then compares verdicts: both must succeed or both fail.
func (h *harness) mutate(i int, op Op) *Failure {
	t := h.tx
	implicit := t == nil
	if implicit {
		t = h.d.Begin()
	}
	w := h.view().Clone()

	var engErr, modErr error
	var mismatch string
	skip := false
	switch op.Kind {
	case OpNew:
		var parents []core.ParentSpec
		var mparents []Parent
		for _, p := range op.Parents {
			rec, ok := h.slot(p.Slot)
			if !ok {
				skip = true
				break
			}
			parents = append(parents, core.ParentSpec{Parent: rec.id, Attr: p.Attr})
			mparents = append(mparents, Parent{ID: rec.id, Class: rec.class, Attr: p.Attr})
		}
		if skip {
			break
		}
		o, err := t.New(op.Class, map[string]value.Value{"Tag": value.Int(op.Tag)}, parents...)
		engErr = err
		var id uid.UID
		if err == nil {
			id = o.UID()
		}
		modErr = w.New(id, op.Class, op.Tag, mparents)
		if engErr == nil && modErr == nil {
			h.slots[op.Slot] = slotRec{id: id, class: op.Class, set: true}
		}
	case OpAttach, OpDetach:
		p, okp := h.slot(op.Slot)
		c, okc := h.slot(op.Child)
		if !okp || !okc {
			skip = true
			break
		}
		if op.Kind == OpAttach {
			engErr = t.Attach(p.id, op.Attr, c.id)
			modErr = w.attach(p.id, op.Attr, c.id)
		} else {
			engErr = t.Detach(p.id, op.Attr, c.id)
			modErr = w.detach(p.id, op.Attr, c.id)
		}
	case OpSetTag:
		rec, ok := h.slot(op.Slot)
		if !ok {
			skip = true
			break
		}
		engErr = t.WriteAttr(rec.id, "Tag", value.Int(op.Tag))
		modErr = w.setTag(rec.id, op.Tag)
	case OpSetRefs:
		rec, ok := h.slot(op.Slot)
		if !ok {
			skip = true
			break
		}
		var refs []Ref
		var ids []uid.UID
		for _, rs := range op.Refs {
			rr, okr := h.slot(rs)
			if !okr {
				skip = true
				break
			}
			refs = append(refs, Ref{ID: rr.id, Class: rr.class})
			ids = append(ids, rr.id)
		}
		if skip {
			break
		}
		var v value.Value
		switch {
		case op.Attr != "Main":
			v = value.RefSet(ids...)
		case len(ids) == 1:
			v = value.Ref(ids[0])
		case len(ids) > 1:
			v = value.RefSet(ids...) // collection on single-valued: both sides reject
		}
		engErr = t.WriteAttr(rec.id, op.Attr, v)
		modErr = w.setRefs(rec.id, op.Attr, refs)
	case OpDelete:
		rec, ok := h.slot(op.Slot)
		if !ok {
			skip = true
			break
		}
		engDel, err := t.Delete(rec.id)
		engErr = err
		modDel, merr := w.Delete(rec.id)
		modErr = merr
		if engErr == nil && modErr == nil && !sameUIDSet(engDel, modDel) {
			mismatch = fmt.Sprintf("casualty list: engine %v, model %v",
				sortedUIDs(engDel), sortedUIDs(modDel))
		}
		if engErr == nil && h.cfg.Sabotage != nil {
			h.cfg.Sabotage(h.d.Engine(), engDel)
		}
	}

	if implicit {
		if engErr != nil || skip {
			if err := t.Abort(); err != nil {
				return h.failOp(i, op, "implicit abort: "+err.Error())
			}
		} else if err := t.Commit(); err != nil {
			return h.failOp(i, op, "implicit commit: "+err.Error())
		}
	}
	if skip {
		return nil
	}
	if (engErr == nil) != (modErr == nil) {
		return h.failOp(i, op, fmt.Sprintf("verdict mismatch: engine err=%v, model err=%v", engErr, modErr))
	}
	if mismatch != "" {
		return h.failOp(i, op, mismatch)
	}
	if engErr == nil {
		if h.working != nil {
			h.working = w
		} else {
			h.model = w
		}
	}
	return nil
}

func (h *harness) evolve(i int, op Op) *Failure {
	var engErr error
	switch op.Change {
	case "I1":
		engErr = h.d.ChangeAttributeType(op.Class, op.Attr, schema.ChangeDropComposite, op.Deferred)
	case "I2":
		engErr = h.d.ChangeAttributeType(op.Class, op.Attr, schema.ChangeToShared, op.Deferred)
	case "I3":
		engErr = h.d.ChangeAttributeType(op.Class, op.Attr, schema.ChangeToIndependent, op.Deferred)
	case "I4":
		engErr = h.d.ChangeAttributeType(op.Class, op.Attr, schema.ChangeToDependent, op.Deferred)
	case "D1":
		engErr = h.d.MakeComposite(op.Class, op.Attr, true, op.Dep)
	case "D2":
		engErr = h.d.MakeComposite(op.Class, op.Attr, false, op.Dep)
	case "D3":
		engErr = h.d.MakeExclusive(op.Class, op.Attr)
	default:
		return h.failOp(i, op, "unknown change "+op.Change)
	}
	w := h.model.Clone()
	var modErr error
	switch op.Change {
	case "D1":
		modErr = w.makeComposite(op.Class, op.Attr, true, op.Dep)
	case "D2":
		modErr = w.makeComposite(op.Class, op.Attr, false, op.Dep)
	case "D3":
		modErr = w.makeExclusive(op.Class, op.Attr)
	default:
		modErr = w.changeAttributeType(op.Class, op.Attr, op.Change)
	}
	if (engErr == nil) != (modErr == nil) {
		return h.failOp(i, op, fmt.Sprintf("evolve verdict mismatch: engine err=%v, model err=%v", engErr, modErr))
	}
	if engErr == nil {
		h.model = w
	}
	return nil
}

// crash simulates a process crash: abandon the database files without
// flushing, reopen through recovery, and require the recovered state to
// equal the model at the last committed transaction — durability (no
// committed effect lost) and atomicity (no aborted effect resurrected)
// in one comparison.
func (h *harness) crash(i int) *Failure {
	op := Op{Kind: OpCrash}
	if err := h.d.Abandon(); err != nil {
		return h.failOp(i, op, "abandon: "+err.Error())
	}
	h.d = nil
	if err := h.open(); err != nil {
		return h.failOp(i, op, "recovery failed: "+err.Error())
	}
	return h.check(i, op)
}

// check fully compares engine and model: object count, per-class extents,
// Tag values, ordered forward reference lists, reverse references with
// D/X flags, the partition sets, and per-object topology rules. The
// committed objects must equal the committed model at every step; while
// a transaction is open, its view must also equal the working model,
// including the absence of what it deleted.
func (h *harness) check(i int, op Op) *Failure {
	if msg := compareState(h.d.Engine(), h.model); msg != "" {
		return h.failOp(i, op, msg)
	}
	if h.tx != nil {
		v := h.tx.View()
		if msg := compareObjects(v, "transaction", h.working); msg != "" {
			return h.failOp(i, op, msg)
		}
		for id := range h.model.objs {
			if _, ok := h.working.objs[id]; !ok && v.Exists(id) {
				return h.failOp(i, op, fmt.Sprintf("%v: deleted in the transaction, still in its view", id))
			}
		}
	}
	return nil
}

// compareState fully compares the committed engine state with a model,
// returning "" when they agree and a description of the first divergence
// otherwise. It is shared by the sequential per-step check and the
// concurrent harness's quiescent-point check.
func compareState(eng *core.Engine, view *Model) string {
	if eng.Len() != len(view.objs) {
		return fmt.Sprintf("object count: engine=%d model=%d", eng.Len(), len(view.objs))
	}
	classNames := make([]string, 0, len(view.classes))
	for name := range view.classes {
		classNames = append(classNames, name)
	}
	sort.Strings(classNames)
	for _, name := range classNames {
		ext, err := eng.Extent(name, false)
		if err != nil {
			return fmt.Sprintf("extent %s: %v", name, err)
		}
		if want := view.extent(name); !equalUIDs(ext, want) {
			return fmt.Sprintf("extent %s: engine %v, model %v", name, ext, want)
		}
	}
	if msg := compareObjects(eng.View, "engine", view); msg != "" {
		return msg
	}
	for _, id := range view.sortedIDs() {
		if v := eng.CheckTopology(id); len(v) != 0 {
			return fmt.Sprintf("%v topology: %v", id, v)
		}
	}
	return ""
}

// compareObjects compares every model object with what v reads: Tag
// values, ordered forward reference lists, reverse references with D/X
// flags, and partition sets. src names the reader in messages.
func compareObjects(v core.View, src string, view *Model) string {
	for _, id := range view.sortedIDs() {
		mo := view.objs[id]
		o, err := v.Get(id)
		if err != nil {
			return fmt.Sprintf("get %v: %v", id, err)
		}
		tv := o.Get("Tag")
		if mo.HasTag {
			got, ok := tv.AsInt()
			if !ok || got != mo.Tag {
				return fmt.Sprintf("%v Tag: %s %v, model %d", id, src, tv, mo.Tag)
			}
		} else if !tv.IsNil() {
			return fmt.Sprintf("%v Tag: %s %v, model unset", id, src, tv)
		}
		cl := view.classes[mo.Class]
		for _, sp := range cl.Attrs {
			if sp.Domain == "" {
				continue
			}
			got := o.Get(sp.Name).Refs(nil)
			if want := mo.Refs[sp.Name]; !equalUIDs(got, want) {
				return fmt.Sprintf("%v.%s forward refs: %s %v, model %v", id, sp.Name, src, got, want)
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
			return fmt.Sprintf("%v reverse refs: %s %v, model %v", id, src, gotRev, wantRev)
		}
		for k := range gotRev {
			if gotRev[k] != wantRev[k] {
				return fmt.Sprintf("%v reverse refs: %s %v, model %v", id, src, gotRev, wantRev)
			}
		}
		parts, err := v.Partitions(id)
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
				return fmt.Sprintf("%v %s partition: %s %v, model %v", id, p.name, src, p.got, want)
			}
		}
	}
	return ""
}

func (h *harness) integrity(i int, op Op) *Failure {
	if v := h.d.Engine().Integrity(); len(v) != 0 {
		return h.failOp(i, op, fmt.Sprintf("integrity violations: %v", v))
	}
	return nil
}

// reverse-ref ordering for comparisons.
func sortRevs(s []revRef) {
	sort.Slice(s, func(a, b int) bool { return s[a].Parent.Less(s[b].Parent) })
}

func sortedUIDs(s []uid.UID) []uid.UID {
	out := append([]uid.UID(nil), s...)
	sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
	return out
}

func equalUIDs(a, b []uid.UID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameUIDSet(a, b []uid.UID) bool {
	return equalUIDs(sortedUIDs(a), sortedUIDs(b))
}
