package sim

import (
	"bytes"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/uid"
	"repro/internal/value"
)

// profHarness pairs a database with the sim model so profiled engine
// operations can be checked against counts the model derives
// independently.
type profHarness struct {
	d *db.DB
	m *Model
}

func newProfHarness(t *testing.T, opts db.Options) *profHarness {
	t.Helper()
	d, err := db.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := defineSchema(d); err != nil {
		t.Fatal(err)
	}
	return &profHarness{d: d, m: newModel(simClassDefs())}
}

// mk creates an object on both sides and returns its UID.
func (h *profHarness) mk(t *testing.T, class string, tag int64, parents ...Parent) uid.UID {
	t.Helper()
	specs := make([]core.ParentSpec, len(parents))
	for i, p := range parents {
		specs[i] = core.ParentSpec{Parent: p.ID, Attr: p.Attr}
	}
	o, err := h.d.Make(class, map[string]value.Value{"Tag": value.Int(tag)}, specs...)
	if err != nil {
		t.Fatalf("make %s: %v", class, err)
	}
	if err := h.m.New(o.UID(), class, tag, parents); err != nil {
		t.Fatalf("model new %s: %v", class, err)
	}
	return o.UID()
}

// modelComponents computes the component closure of root by BFS over the
// model's composite-flagged references — the model's own bookkeeping,
// independent of the engine walker being profiled.
func (h *profHarness) modelComponents(t *testing.T, root uid.UID) []uid.UID {
	t.Helper()
	seen := map[uid.UID]bool{root: true}
	queue := []uid.UID{root}
	var out []uid.UID
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		o := h.m.objs[id]
		if o == nil {
			t.Fatalf("model: no object %v", id)
		}
		for _, a := range h.m.classes[o.Class].Attrs {
			if !a.Composite {
				continue
			}
			for _, c := range o.Refs[a.Name] {
				if !seen[c] {
					seen[c] = true
					out = append(out, c)
					queue = append(queue, c)
				}
			}
		}
	}
	return out
}

func sortUIDs(ids []uid.UID) []uid.UID {
	out := append([]uid.UID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// TestProfileMatchesModelTraversal: a profiled ComponentsOf must visit
// exactly the objects the model's independent BFS closure predicts —
// result set equal to the closure, objects-visited equal to closure
// size plus the root, and every visit accounted for by the plan cache.
// A second identical run must be all cache hits.
func TestProfileMatchesModelTraversal(t *testing.T) {
	h := newProfHarness(t, db.Options{})
	root := h.mk(t, "DX", 1)
	h.mk(t, "Hull", 2, Parent{ID: root, Class: "DX", Attr: "Main"})
	for i := int64(0); i < 3; i++ {
		h.mk(t, "Leaf", 10+i, Parent{ID: root, Class: "DX", Attr: "Parts"})
	}
	sub := h.mk(t, "DX", 3, Parent{ID: root, Class: "DX", Attr: "Subs"})
	h.mk(t, "Hull", 4, Parent{ID: sub, Class: "DX", Attr: "Main"})
	h.mk(t, "Leaf", 20, Parent{ID: sub, Class: "DX", Attr: "Parts"})

	want := h.modelComponents(t, root)
	p := obs.NewProfCtx("components-of")
	got, err := h.d.ComponentsOf(root, core.QueryOpts{Prof: p})
	if err != nil {
		t.Fatal(err)
	}
	p.Finish()

	wantS, gotS := sortUIDs(want), sortUIDs(got)
	if len(wantS) != len(gotS) {
		t.Fatalf("closure size: engine %d, model %d", len(gotS), len(wantS))
	}
	for i := range wantS {
		if wantS[i] != gotS[i] {
			t.Fatalf("closure member %d: engine %v, model %v", i, gotS[i], wantS[i])
		}
	}
	c := p.Counts()
	if wantVisits := uint64(1 + len(want)); c.ObjectsVisited != wantVisits {
		t.Fatalf("objects visited: profile says %d, model says %d", c.ObjectsVisited, wantVisits)
	}
	// The plan cache is consulted once per distinct class the walk
	// reaches; the model knows that set independently.
	classes := map[string]bool{h.m.objs[root].Class: true}
	for _, id := range want {
		classes[h.m.objs[id].Class] = true
	}
	if got, wantC := c.CacheHits+c.CacheMisses, uint64(len(classes)); got != wantC {
		t.Fatalf("cache consults (%d hit + %d miss) != %d distinct classes",
			c.CacheHits, c.CacheMisses, wantC)
	}
	if c.CacheMisses == 0 {
		t.Fatal("first traversal should miss the plan cache at least once")
	}

	// The plan cache is warm now: a second profiled run must be all hits.
	p2 := obs.NewProfCtx("components-of-warm")
	if _, err := h.d.ComponentsOf(root, core.QueryOpts{Prof: p2}); err != nil {
		t.Fatal(err)
	}
	p2.Finish()
	c2 := p2.Counts()
	if c2.CacheMisses != 0 || c2.CacheHits != uint64(len(classes)) {
		t.Fatalf("warm run: want all %d consults to hit, got %d hit / %d miss",
			len(classes), c2.CacheHits, c2.CacheMisses)
	}
}

// TestProfileWALAttribution: on a durable database, a profiled mutation
// is charged the WAL frames it appends, and exactly the bytes the log's
// own counter grew by over the same window.
func TestProfileWALAttribution(t *testing.T) {
	h := newProfHarness(t, db.Options{Dir: t.TempDir(), SyncWAL: false})
	root := h.mk(t, "IX", 1)
	leaf := h.mk(t, "Leaf", 2, Parent{ID: root, Class: "IX", Attr: "Parts"})

	bytes := func() uint64 { return h.d.Observability().Snapshot().Counters["wal_append_bytes_total"] }
	before := bytes()
	p := obs.NewProfCtx("set-tag")
	h.d.AttachProf(p)
	err := h.d.Set(leaf, "Tag", value.Int(42))
	h.d.AttachProf(nil)
	p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c := p.Counts()
	if c.WALAppends == 0 || c.WALBytes == 0 {
		t.Fatalf("durable mutation attributed no WAL cost: %+v", c)
	}
	if dw := bytes() - before; c.WALBytes != dw {
		t.Fatalf("wal bytes: profile says %d, the log's counter says %d", c.WALBytes, dw)
	}
}

// TestProfileSnapshotVersionWalk: a snapshot pinned below N later
// committed rewrites of one object must walk exactly N+1 versions to
// resolve it, and the profile must say so.
func TestProfileSnapshotVersionWalk(t *testing.T) {
	h := newProfHarness(t, db.Options{})
	obj := h.mk(t, "Leaf", 1)

	snap := h.d.BeginSnapshot()
	defer snap.Release()
	const rewrites = 3
	for i := int64(0); i < rewrites; i++ {
		if err := h.d.Set(obj, "Tag", value.Int(100+i)); err != nil {
			t.Fatal(err)
		}
	}

	p := obs.NewProfCtx("snapshot-get")
	snap.SetProf(p)
	o, err := snap.Get(obj)
	snap.SetProf(nil)
	p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tag := o.Get("Tag"); !tag.Equal(value.Int(1)) {
		t.Fatalf("snapshot read leaked a post-pin version: Tag=%v", tag)
	}
	c := p.Counts()
	if want := uint64(rewrites + 1); c.VersionsWalked != want {
		t.Fatalf("versions walked: profile says %d, chain depth says %d", c.VersionsWalked, want)
	}
	if c.ObjectsVisited != 1 {
		t.Fatalf("objects visited: want 1, got %d", c.ObjectsVisited)
	}
}

// TestProfileLockWait: a profiled transaction that blocks behind a
// conflicting writer must attribute the wait — count and duration — to
// its own ProfCtx via the lock manager's per-transaction registration.
func TestProfileLockWait(t *testing.T) {
	h := newProfHarness(t, db.Options{})
	root := h.mk(t, "IX", 1)

	t1 := h.d.Begin()
	if err := t1.WriteAttr(root, "Tag", value.Int(2)); err != nil {
		t.Fatal(err)
	}

	t2 := h.d.Begin()
	p := t2.Profile()
	const hold = 30 * time.Millisecond
	go func() {
		time.Sleep(hold)
		t1.Commit()
	}()
	if err := t2.WriteAttr(root, "Tag", value.Int(3)); err != nil {
		t.Fatal(err)
	}
	c := p.Counts()
	if c.LockWaits == 0 {
		t.Fatal("blocked transaction attributed no lock waits")
	}
	if c.LockWaitNs < int64(hold/3) {
		t.Fatalf("lock wait ns too small to be the observed block: %d", c.LockWaitNs)
	}
	if len(p.LockWaits()) == 0 {
		t.Fatal("per-mode lock wait map empty")
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// syncBuf is a race-safe bytes.Buffer for capturing flight dumps written
// from lock-manager goroutines.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDeadlockDumpsFlightRecorder forces the canonical opposite-order
// deadlock and checks the black box: the victim abort must leave a
// lock.deadlock record in the flight ring and dump a non-empty record
// set to the recorder's writer.
func TestDeadlockDumpsFlightRecorder(t *testing.T) {
	h := newProfHarness(t, db.Options{})
	f := h.d.Observability().Flight()
	var buf syncBuf
	f.SetWriter(&buf)

	r1 := h.mk(t, "IX", 1)
	r2 := h.mk(t, "IX", 2)
	l1 := h.mk(t, "Leaf", 3)
	l2 := h.mk(t, "Leaf", 4)
	l3 := h.mk(t, "Leaf", 5)
	l4 := h.mk(t, "Leaf", 6)

	t1 := h.d.Begin()
	t2 := h.d.Begin() // younger: the chosen victim
	if err := t1.Attach(r1, "Parts", l1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Attach(r2, "Parts", l2); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- t1.Attach(r2, "Parts", l3) }()
	err2 := t2.Attach(r1, "Parts", l4)
	if !errors.Is(err2, lock.ErrDeadlock) {
		t.Fatalf("expected the victim to fail with ErrDeadlock, got %v", err2)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("survivor's attach failed: %v", err)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}

	var sawDeadlock bool
	recs := f.Records()
	for _, r := range recs {
		if r.Op == "lock.deadlock" {
			sawDeadlock = true
		}
	}
	if !sawDeadlock {
		t.Fatalf("flight ring has no lock.deadlock record among %d records", len(recs))
	}
	if len(recs) == 0 {
		t.Fatal("flight ring empty after deadlock abort")
	}
	out := buf.String()
	if !bytes.Contains([]byte(out), []byte("deadlock-victim abort")) {
		t.Fatalf("flight dump missing the deadlock trigger reason:\n%s", out)
	}
	if !bytes.Contains([]byte(out), []byte("lock.deadlock")) {
		t.Fatalf("flight dump does not include the deadlock record:\n%s", out)
	}
}
