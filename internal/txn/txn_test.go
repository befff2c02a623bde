package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

func docEngine(t *testing.T) *core.Engine {
	t.Helper()
	cat := schema.NewCatalog()
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Paragraph", Attributes: []schema.AttrSpec{
		schema.NewAttr("Text", schema.StringDomain),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Document", Attributes: []schema.AttrSpec{
		schema.NewAttr("Title", schema.StringDomain),
		schema.NewCompositeSetAttr("Paras", "Paragraph"), // dependent exclusive
	}}); err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(cat)
}

func TestCommitMakesChangesDurable(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	tx := m.Begin()
	doc, err := tx.New("Document", map[string]value.Value{"Title": value.Str("d")})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !e.Exists(doc.UID()) {
		t.Fatal("committed object missing")
	}
	if m.Locks().LockCount(tx.ID()) != 0 {
		t.Fatal("locks survived commit")
	}
	// Using a finished transaction errors.
	if _, err := tx.New("Document", nil); !errors.Is(err, ErrDone) {
		t.Fatalf("use after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestAbortRollsBackCreation(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	tx := m.Begin()
	doc, _ := tx.New("Document", nil)
	para, err := tx.New("Paragraph", nil, core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if e.Exists(doc.UID()) || e.Exists(para.UID()) {
		t.Fatal("aborted creations persisted")
	}
	if len(e.Integrity()) != 0 {
		t.Fatalf("integrity after abort: %v", e.Integrity())
	}
}

func TestAbortRollsBackWrite(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	var doc uid.UID
	if err := m.Run(func(tx *Txn) error {
		o, err := tx.New("Document", map[string]value.Value{"Title": value.Str("before")})
		doc = o.UID()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	if err := tx.WriteAttr(doc, "Title", value.Str("after")); err != nil {
		t.Fatal(err)
	}
	o, _ := tx.View().Get(doc)
	if s, _ := o.Get("Title").AsString(); s != "after" {
		t.Fatal("write not visible inside txn")
	}
	tx.Abort()
	o, _ = e.Get(doc)
	if s, _ := o.Get("Title").AsString(); s != "before" {
		t.Fatalf("Title after abort = %q", s)
	}
}

func TestAbortRollsBackAttachDetach(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	var doc, para uid.UID
	m.Run(func(tx *Txn) error {
		d, _ := tx.New("Document", nil)
		p, _ := tx.New("Paragraph", nil)
		doc, para = d.UID(), p.UID()
		return nil
	})
	tx := m.Begin()
	if err := tx.Attach(doc, "Paras", para); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	po, _ := e.Get(para)
	if po.HasAnyReverse() {
		t.Fatal("attach survived abort")
	}
	do, _ := e.Get(doc)
	if do.Get("Paras").ContainsRef(para) {
		t.Fatal("forward ref survived abort")
	}
	if len(e.Integrity()) != 0 {
		t.Fatalf("integrity: %v", e.Integrity())
	}
}

func TestAbortRollsBackCascadingDelete(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	var doc, p1, p2 uid.UID
	m.Run(func(tx *Txn) error {
		d, _ := tx.New("Document", map[string]value.Value{"Title": value.Str("keep")})
		doc = d.UID()
		a, _ := tx.New("Paragraph", map[string]value.Value{"Text": value.Str("one")},
			core.ParentSpec{Parent: doc, Attr: "Paras"})
		b, _ := tx.New("Paragraph", map[string]value.Value{"Text": value.Str("two")},
			core.ParentSpec{Parent: doc, Attr: "Paras"})
		p1, p2 = a.UID(), b.UID()
		return nil
	})
	tx := m.Begin()
	deleted, err := tx.Delete(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 3 {
		t.Fatalf("deleted = %v", deleted)
	}
	tx.Abort()
	// Everything is back, including reverse refs and attribute values.
	for _, id := range []uid.UID{doc, p1, p2} {
		if !e.Exists(id) {
			t.Fatalf("%v not restored", id)
		}
	}
	do, _ := e.Get(doc)
	if !do.Get("Paras").ContainsRef(p1) || !do.Get("Paras").ContainsRef(p2) {
		t.Fatal("forward refs not restored")
	}
	po, _ := e.Get(p1)
	if !po.HasReverse(doc) {
		t.Fatal("reverse ref not restored")
	}
	if s, _ := po.Get("Text").AsString(); s != "one" {
		t.Fatal("attribute value not restored")
	}
	if len(e.Integrity()) != 0 {
		t.Fatalf("integrity: %v", e.Integrity())
	}
}

func TestReadCommittedIsolationViaLocks(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	var doc uid.UID
	m.Run(func(tx *Txn) error {
		d, err := tx.New("Document", map[string]value.Value{"Title": value.Str("v0")})
		doc = d.UID()
		return err
	})
	// Writer holds X; reader blocks until the writer finishes.
	w := m.Begin()
	if err := w.WriteAttr(doc, "Title", value.Str("v1")); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		var title string
		err := m.Run(func(tx *Txn) error {
			o, err := tx.ReadObject(doc)
			if err != nil {
				return err
			}
			title, _ = o.Get("Title").AsString()
			return nil
		})
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		got <- title
	}()
	select {
	case v := <-got:
		t.Fatalf("reader returned %q while writer held X", v)
	case <-time.After(50 * time.Millisecond):
	}
	w.Commit()
	select {
	case v := <-got:
		if v != "v1" {
			t.Fatalf("reader saw %q, want v1", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader stuck after writer commit")
	}
}

func TestConcurrentTransfersKeepInvariant(t *testing.T) {
	// Concurrent transactions move paragraphs between two documents; the
	// total paragraph count and topology invariants must hold throughout.
	e := docEngine(t)
	m := NewManager(e)
	var d1, d2 uid.UID
	var paras []uid.UID
	m.Run(func(tx *Txn) error {
		a, _ := tx.New("Document", nil)
		b, _ := tx.New("Document", nil)
		d1, d2 = a.UID(), b.UID()
		for i := 0; i < 8; i++ {
			p, err := tx.New("Paragraph", nil, core.ParentSpec{Parent: d1, Attr: "Paras"})
			if err != nil {
				return err
			}
			paras = append(paras, p.UID())
		}
		return nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := paras[(w*20+i)%len(paras)]
				err := m.Run(func(tx *Txn) error {
					// Move p to whichever document doesn't hold it.
					from, to := d1, d2
					o, err := tx.ReadObject(p)
					if err != nil {
						return err
					}
					if o.HasReverse(d2) {
						from, to = d2, d1
					}
					if err := tx.Detach(from, "Paras", p); err != nil {
						return err
					}
					return tx.Attach(to, "Paras", p)
				})
				if err != nil && !errors.Is(err, core.ErrNotReferenced) {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(e.Integrity()) != 0 {
		t.Fatalf("integrity: %v", e.Integrity())
	}
	// All paragraphs still exist, each in exactly one document.
	for _, p := range paras {
		o, err := e.Get(p)
		if err != nil {
			t.Fatalf("paragraph lost: %v", err)
		}
		if len(o.Reverse()) != 1 {
			t.Fatalf("paragraph %v has %d parents", p, len(o.Reverse()))
		}
	}
}

func TestRunRetriesDeadlock(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	var a, b uid.UID
	m.Run(func(tx *Txn) error {
		x, _ := tx.New("Document", nil)
		y, _ := tx.New("Document", nil)
		a, b = x.UID(), y.UID()
		return nil
	})
	// Two goroutines lock a,b in opposite orders repeatedly; Run's retry
	// must let both complete.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			first, second := a, b
			if w == 1 {
				first, second = b, a
			}
			for i := 0; i < 10; i++ {
				err := m.Run(func(tx *Txn) error {
					if err := tx.WriteAttr(first, "Title", value.Str("w")); err != nil {
						return err
					}
					return tx.WriteAttr(second, "Title", value.Str("w"))
				})
				if err != nil && !errors.Is(err, lock.ErrDeadlock) {
					t.Errorf("run: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock retry loop hung")
	}
}

func TestReadCompositeLocksProtocol(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	var doc, para uid.UID
	m.Run(func(tx *Txn) error {
		d, _ := tx.New("Document", nil)
		doc = d.UID()
		p, err := tx.New("Paragraph", nil, core.ParentSpec{Parent: doc, Attr: "Paras"})
		para = p.UID()
		return err
	})
	tx := m.Begin()
	defer tx.Commit()
	got, err := tx.ReadComposite(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != doc || got[1] != para {
		t.Fatalf("ReadComposite = %v", got)
	}
	// The protocol locks are in place: ISO on the component class.
	if !m.Locks().Holds(tx.ID(), lock.ClassGranule("Paragraph"), lock.ISO) {
		t.Fatal("ISO not held on component class")
	}
	// A concurrent direct writer of the paragraph must block (IX vs ISO).
	if ok := m.Locks().TryLock(999, lock.ClassGranule("Paragraph"), lock.IX); ok {
		t.Fatal("IX granted against ISO")
	}
}

func TestTxnErrorPaths(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	if m.Engine() != e || m.Protocol() == nil {
		t.Fatal("accessors broken")
	}
	ghost := uid.UID{Class: 99, Serial: 1}
	tx := m.Begin()
	if _, err := tx.ReadObject(ghost); err == nil {
		t.Fatal("read of ghost succeeded")
	}
	if err := tx.WriteAttr(ghost, "Title", value.Str("x")); err == nil {
		t.Fatal("write of ghost succeeded")
	}
	if _, err := tx.Delete(ghost); err == nil {
		t.Fatal("delete of ghost succeeded")
	}
	if err := tx.Attach(ghost, "Paras", ghost); err == nil {
		t.Fatal("attach of ghosts succeeded")
	}
	if _, err := tx.ReadComposite(ghost); err == nil {
		t.Fatal("read-composite of ghost succeeded")
	}
	if _, err := tx.New("Ghost", nil); err == nil {
		t.Fatal("new of ghost class succeeded")
	}
	tx.Abort()
	// Every operation on a finished txn returns ErrDone.
	if _, err := tx.ReadObject(ghost); !errors.Is(err, ErrDone) {
		t.Fatalf("read after abort: %v", err)
	}
	if err := tx.WriteAttr(ghost, "T", value.Nil); !errors.Is(err, ErrDone) {
		t.Fatalf("write after abort: %v", err)
	}
	if err := tx.Attach(ghost, "a", ghost); !errors.Is(err, ErrDone) {
		t.Fatalf("attach after abort: %v", err)
	}
	if err := tx.Detach(ghost, "a", ghost); !errors.Is(err, ErrDone) {
		t.Fatalf("detach after abort: %v", err)
	}
	if _, err := tx.Delete(ghost); !errors.Is(err, ErrDone) {
		t.Fatalf("delete after abort: %v", err)
	}
	if _, err := tx.ReadComposite(ghost); !errors.Is(err, ErrDone) {
		t.Fatalf("read-composite after abort: %v", err)
	}
	if _, err := tx.New("Document", nil); !errors.Is(err, ErrDone) {
		t.Fatalf("new after abort: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrDone) {
		t.Fatalf("double abort: %v", err)
	}
}

func TestRunPropagatesNonDeadlockErrors(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	sentinel := errors.New("boom")
	calls := 0
	err := m.Run(func(tx *Txn) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run = %v", err)
	}
	if calls != 1 {
		t.Fatalf("non-deadlock error retried %d times", calls)
	}
}

func TestRunRecoversLocksOnPanic(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	var doc uid.UID
	m.Run(func(tx *Txn) error {
		o, err := tx.New("Document", nil)
		doc = o.UID()
		return err
	})
	func() {
		defer func() { recover() }()
		m.Run(func(tx *Txn) error {
			if err := tx.WriteAttr(doc, "Title", value.Str("x")); err != nil {
				return err
			}
			panic("kaboom")
		})
	}()
	// The panicking transaction's locks were released; a new writer
	// proceeds and the write was rolled back.
	if err := m.Run(func(tx *Txn) error {
		o, err := tx.ReadObject(doc)
		if err != nil {
			return err
		}
		if o.Has("Title") {
			t.Error("panicked write survived")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAttrDetachesOldCompositeChildren(t *testing.T) {
	// Overwriting a composite set through a transaction unlinks the
	// removed children and undo restores them.
	e := docEngine(t)
	m := NewManager(e)
	var doc, p1, p2 uid.UID
	m.Run(func(tx *Txn) error {
		d, _ := tx.New("Document", nil)
		doc = d.UID()
		a, _ := tx.New("Paragraph", nil, core.ParentSpec{Parent: doc, Attr: "Paras"})
		b, _ := tx.New("Paragraph", nil)
		p1, p2 = a.UID(), b.UID()
		return nil
	})
	tx := m.Begin()
	if err := tx.WriteAttr(doc, "Paras", value.RefSet(p2)); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	o1, _ := e.Get(p1)
	o2, _ := e.Get(p2)
	if !o1.HasReverse(doc) || o2.HasReverse(doc) {
		t.Fatal("abort did not restore the composite diff")
	}
	if len(e.Integrity()) != 0 {
		t.Fatalf("integrity: %v", e.Integrity())
	}
}
