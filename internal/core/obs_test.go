package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/uid"
)

// cascadeEngine builds the shared-dependent DAG the trace test deletes:
// Root -DX-> {A, B} (both Mid), and A, B -DS-> C (Leaf). Deleting Root
// must cascade through A and B, with C surviving the first severed DS
// reference and dying with the last.
func cascadeEngine(t *testing.T) (e *Engine, root, a, b, c uid.UID) {
	t.Helper()
	cat := schema.NewCatalog()
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Leaf"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Mid", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Sub", "Leaf").WithExclusive(false).WithDependent(true),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Root", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Parts", "Mid").WithExclusive(true).WithDependent(true),
	}}); err != nil {
		t.Fatal(err)
	}
	e = NewEngine(cat)
	r := mustNew(t, e, "Root", nil)
	ao := mustNew(t, e, "Mid", nil, ParentSpec{Parent: r.UID(), Attr: "Parts"})
	bo := mustNew(t, e, "Mid", nil, ParentSpec{Parent: r.UID(), Attr: "Parts"})
	co := mustNew(t, e, "Leaf", nil,
		ParentSpec{Parent: ao.UID(), Attr: "Sub"},
		ParentSpec{Parent: bo.UID(), Attr: "Sub"},
	)
	return e, r.UID(), ao.UID(), bo.UID(), co.UID()
}

// TestCascadeTrace deletes the shared-dependent DAG with tracing on and
// checks the emitted events: deterministic order, parent/child span
// nesting mirroring the cascade tree, and the last-parent deletion of
// the shared dependent distinguishable from the exclusive cascades.
func TestCascadeTrace(t *testing.T) {
	e, root, a, b, c := cascadeEngine(t)
	tr := e.Observability().Tracer()
	tr.SetActive(true)

	deleted, err := e.Delete(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 4 {
		t.Fatalf("deleted = %v", deleted)
	}

	evs := tr.Events()
	type want struct {
		phase, name string
		fields      map[string]string
	}
	f := func(kv ...string) map[string]string {
		m := map[string]string{}
		for i := 0; i+1 < len(kv); i += 2 {
			m[kv[i]] = kv[i+1]
		}
		return m
	}
	wants := []want{
		{obs.PhaseBegin, "core.delete", f("uid", root.String())},
		{obs.PhaseBegin, "core.delete.object", f("uid", root.String())},
		{obs.PhasePoint, "core.delete.reap", f("child", a.String(), "rule", "cascade-dependent-exclusive")},
		{obs.PhaseBegin, "core.delete.object", f("uid", a.String())},
		{obs.PhasePoint, "core.delete.reap", f("child", c.String(), "rule", "survives-ds-parents-remain")},
		{obs.PhaseEnd, "core.delete.object", nil},
		{obs.PhasePoint, "core.delete.reap", f("child", b.String(), "rule", "cascade-dependent-exclusive")},
		{obs.PhaseBegin, "core.delete.object", f("uid", b.String())},
		{obs.PhasePoint, "core.delete.reap", f("child", c.String(), "rule", "cascade-last-ds-parent")},
		{obs.PhaseBegin, "core.delete.object", f("uid", c.String())},
		{obs.PhaseEnd, "core.delete.object", nil},
		{obs.PhaseEnd, "core.delete.object", nil},
		{obs.PhaseEnd, "core.delete.object", nil},
		{obs.PhaseEnd, "core.delete", f("deleted", "4")},
	}
	if len(evs) != len(wants) {
		for _, ev := range evs {
			t.Log(ev)
		}
		t.Fatalf("got %d events, want %d", len(evs), len(wants))
	}
	fieldsOf := func(ev obs.Event) map[string]string {
		m := map[string]string{}
		for _, fl := range ev.Fields {
			m[fl.Key] = fl.Val
		}
		return m
	}
	for i, w := range wants {
		ev := evs[i]
		if ev.Phase != w.phase || ev.Name != w.name {
			t.Fatalf("event %d = %v, want %s %s", i, ev, w.phase, w.name)
		}
		got := fieldsOf(ev)
		for k, v := range w.fields {
			if got[k] != v {
				t.Fatalf("event %d %v: field %s = %q, want %q", i, ev, k, got[k], v)
			}
		}
	}
	// Span nesting mirrors the cascade tree: delete-object spans open
	// under the root delete span, the cascaded objects under their
	// deleting parent, and every reap point attaches to the span of the
	// parent being deleted.
	sRoot, sR, sA, sB, sC := evs[0].Span, evs[1].Span, evs[3].Span, evs[7].Span, evs[9].Span
	if evs[1].Parent != sRoot {
		t.Fatalf("root object span nests under %d, want %d", evs[1].Parent, sRoot)
	}
	for i, parent := range map[int]uint64{3: sR, 7: sR, 9: sB} {
		if evs[i].Parent != parent {
			t.Fatalf("event %d (%v) parent = %d, want %d", i, evs[i], evs[i].Parent, parent)
		}
	}
	if evs[2].Parent != sR || evs[4].Parent != sA || evs[6].Parent != sR || evs[8].Parent != sB {
		t.Fatal("reap points not attached to the deleting parent's span")
	}
	if evs[5].Span != sA || evs[10].Span != sC || evs[11].Span != sB || evs[12].Span != sR || evs[13].Span != sRoot {
		t.Fatal("End events close the wrong spans")
	}

	// The registry counters saw the same cascade.
	snap := e.Observability().Snapshot()
	if snap.Counters["core_delete_total"] != 1 || snap.Counters["core_delete_cascaded_total"] != 3 {
		t.Fatalf("delete counters = %+v", snap.Counters)
	}
	checkClean(t, e)
}

// TestCascadeTraceOffByDefault: the same cascade with the default
// (disabled) tracer must emit nothing and still count.
func TestCascadeTraceOffByDefault(t *testing.T) {
	e, root, _, _, _ := cascadeEngine(t)
	if _, err := e.Delete(root); err != nil {
		t.Fatal(err)
	}
	if evs := e.Observability().Tracer().Events(); len(evs) != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(evs))
	}
	if got := e.Observability().Snapshot().Counters["core_delete_cascaded_total"]; got != 3 {
		t.Fatalf("core_delete_cascaded_total = %d", got)
	}
}

// TestSetObservabilityNil: a nil registry (the no-instrumentation
// baseline BenchmarkObsDisabled measures against) must keep the engine
// fully functional.
func TestSetObservabilityNil(t *testing.T) {
	e, root, _, _, _ := cascadeEngine(t)
	e.SetObservability(nil)
	if e.Observability() != nil {
		t.Fatal("nil registry not installed")
	}
	if comps, err := e.ComponentsOf(root, QueryOpts{}); err != nil || len(comps) != 3 {
		t.Fatalf("components with nil registry = %v, %v", comps, err)
	}
	deleted, err := e.Delete(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 4 {
		t.Fatalf("deleted = %v", deleted)
	}
}

// TestPlanMemoRace runs live and snapshot walks, which fill the one
// shared plan memo, against catalog mutations that advance its version
// and drop older entries. Under -race this pins the memo as race-free;
// every walk must still see the unchanged Parts plan.
func TestPlanMemoRace(t *testing.T) {
	cat := schema.NewCatalog()
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Leaf"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Root", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Parts", "Leaf").WithExclusive(true).WithDependent(true),
	}}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat)
	r := mustNew(t, e, "Root", nil)
	for i := 0; i < 8; i++ {
		mustNew(t, e, "Leaf", nil, ParentSpec{Parent: r.UID(), Attr: "Parts"})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var comps []uid.UID
				var err error
				if i%2 == 0 {
					comps, err = e.ComponentsOf(r.UID(), QueryOpts{})
				} else {
					s := e.BeginSnapshot()
					comps, err = s.ComponentsOf(r.UID(), QueryOpts{})
					s.Release()
				}
				if err != nil || len(comps) != 8 {
					panic(fmt.Sprintf("ComponentsOf = %d, %v", len(comps), err))
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		if _, err := cat.DefineClass(schema.ClassDef{Name: fmt.Sprintf("Other%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
