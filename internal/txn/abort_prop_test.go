package txn

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

var abortPropClasses = []string{"Leaf", "DX", "IX", "DS", "IS"}

// abortPropManager builds an engine with one parent class per reference
// kind (each with a Leaf-set, a recursive set, and an int attribute) and
// a transaction manager over it.
func abortPropManager(t *testing.T) *Manager {
	t.Helper()
	cat := schema.NewCatalog()
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Leaf", Attributes: []schema.AttrSpec{
		schema.NewAttr("Tag", schema.IntDomain),
	}}); err != nil {
		t.Fatal(err)
	}
	kinds := map[string][2]bool{"DX": {true, true}, "IX": {true, false}, "DS": {false, true}, "IS": {false, false}}
	for _, name := range []string{"DX", "IX", "DS", "IS"} {
		k := kinds[name]
		if _, err := cat.DefineClass(schema.ClassDef{Name: name, Attributes: []schema.AttrSpec{
			schema.NewAttr("Tag", schema.IntDomain),
			schema.NewCompositeSetAttr("Parts", "Leaf").WithExclusive(k[0]).WithDependent(k[1]),
			schema.NewCompositeSetAttr("Subs", name).WithExclusive(k[0]).WithDependent(k[1]),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return NewManager(core.NewEngine(cat))
}

// engineDump captures everything observable about the engine: the byte
// encoding of every object (attributes, reverse references with flags,
// CC stamp), the partition sets, and the results of the composite
// queries ComponentsOf and AncestorsOf.
type engineDump struct {
	objects    map[uid.UID][]byte
	partitions map[uid.UID]string
	components map[uid.UID]string
	ancestors  map[uid.UID]string
}

func dumpEngine(t *testing.T, e *core.Engine) engineDump {
	t.Helper()
	d := engineDump{
		objects:    map[uid.UID][]byte{},
		partitions: map[uid.UID]string{},
		components: map[uid.UID]string{},
		ancestors:  map[uid.UID]string{},
	}
	for _, class := range abortPropClasses {
		ids, err := e.Extent(class, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			o, err := e.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			d.objects[id] = encoding.EncodeObject(o)
			p, err := e.Partitions(id)
			if err != nil {
				t.Fatal(err)
			}
			d.partitions[id] = fmt.Sprintf("IX=%v DX=%v IS=%v DS=%v",
				sortedIDs(p.IX), sortedIDs(p.DX), sortedIDs(p.IS), sortedIDs(p.DS))
			comps, err := e.ComponentsOf(id, core.QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			d.components[id] = fmt.Sprint(sortedIDs(comps))
			ancs, err := e.AncestorsOf(id, core.QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			d.ancestors[id] = fmt.Sprint(sortedIDs(ancs))
		}
	}
	return d
}

func sortedIDs(s []uid.UID) []uid.UID {
	out := append([]uid.UID(nil), s...)
	sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
	return out
}

func diffDumps(before, after engineDump) string {
	if len(before.objects) != len(after.objects) {
		return fmt.Sprintf("object count %d -> %d", len(before.objects), len(after.objects))
	}
	for id, b := range before.objects {
		a, ok := after.objects[id]
		if !ok {
			return fmt.Sprintf("object %v vanished", id)
		}
		if !bytes.Equal(b, a) {
			return fmt.Sprintf("object %v bytes changed", id)
		}
		for _, m := range []struct {
			name          string
			before, after map[uid.UID]string
		}{
			{"partitions", before.partitions, after.partitions},
			{"components", before.components, after.components},
			{"ancestors", before.ancestors, after.ancestors},
		} {
			if m.before[id] != m.after[id] {
				return fmt.Sprintf("%s of %v: %s -> %s", m.name, id, m.before[id], m.after[id])
			}
		}
	}
	return ""
}

// TestAbortRestoresEngineByteIdentical: after Begin -> random mutations
// -> Abort, the engine must be byte-identical to its pre-transaction
// state — object encodings (attributes, reverse refs, flags), partition
// sets, and the cached composite-query results all included. The seed
// phase populates caches so that stale-invalidation bugs surface too.
func TestAbortRestoresEngineByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			m := abortPropManager(t)
			r := rand.New(rand.NewSource(seed))
			var live []uid.UID
			classOf := map[uid.UID]string{}
			// Seed phase: build a committed population with composite
			// structure.
			if err := m.Run(func(tx *Txn) error {
				for i := 0; i < 30; i++ {
					class := abortPropClasses[r.Intn(len(abortPropClasses))]
					o, err := tx.New(class, map[string]value.Value{"Tag": value.Int(r.Int63n(1000))})
					if err != nil {
						return err
					}
					live = append(live, o.UID())
					classOf[o.UID()] = class
				}
				for i := 0; i < 40; i++ {
					p := live[r.Intn(len(live))]
					c := live[r.Intn(len(live))]
					attr := "Parts"
					if classOf[c] != "Leaf" {
						attr = "Subs"
					}
					tx.Attach(p, attr, c) // rejections are fine
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			before := dumpEngine(t, m.Engine())

			// Transaction phase: random mutations, some failing, then abort.
			tx := m.Begin()
			pick := func() uid.UID { return live[r.Intn(len(live))] }
			for i := 0; i < 30; i++ {
				switch r.Intn(6) {
				case 0:
					if o, err := tx.New(abortPropClasses[r.Intn(len(abortPropClasses))], nil); err == nil {
						live = append(live, o.UID())
						classOf[o.UID()] = "?"
					}
				case 1:
					c := pick()
					attr := "Parts"
					if classOf[c] != "Leaf" {
						attr = "Subs"
					}
					tx.Attach(pick(), attr, c)
				case 2:
					c := pick()
					attr := "Parts"
					if classOf[c] != "Leaf" {
						attr = "Subs"
					}
					tx.Detach(pick(), attr, c)
				case 3:
					tx.WriteAttr(pick(), "Tag", value.Int(r.Int63n(1000)))
				case 4:
					tx.WriteAttr(pick(), "Parts", value.RefSet())
				default:
					tx.Delete(pick())
				}
			}
			if err := tx.Abort(); err != nil {
				t.Fatalf("abort: %v", err)
			}
			after := dumpEngine(t, m.Engine())
			if d := diffDumps(before, after); d != "" {
				t.Fatalf("seed %d: engine state changed across abort: %s", seed, d)
			}
			if v := m.Engine().Integrity(); len(v) != 0 {
				t.Fatalf("seed %d: integrity violations after abort: %v", seed, v)
			}
		})
	}
}

// TestAbortRestoresFirstWriteVersion: a second writer of an object in
// an open transaction's write set (here the version layer's Mutate, in a
// transaction of its own) waits for the transaction's outcome. Abort must
// restore the version the object had at the transaction's first write,
// and the waiting writer must then find exactly that version.
func TestAbortRestoresFirstWriteVersion(t *testing.T) {
	m := abortPropManager(t)
	e := m.Engine()
	o, err := e.New("Leaf", map[string]value.Value{"Tag": value.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	id := o.UID()
	before := encoding.EncodeObject(o)
	tx := m.Begin()
	if err := tx.WriteAttr(id, "Tag", value.Int(2)); err != nil {
		t.Fatal(err)
	}
	waits := m.Observability().Counter("lock_wait_total")
	waited := waits.Load()
	var seen []byte
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(t2 *Txn) error {
			return t2.Mutate(id, func(o *object.Object) {
				seen = encoding.EncodeObject(o)
				o.Set("Tag", value.Int(3))
			})
		})
	}()
	for waits.Load() == waited {
		select {
		case err := <-done:
			t.Fatalf("second writer finished under the open transaction (err %v)", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, seen) {
		t.Fatalf("second writer found %q after the abort, want the pre-transaction %q", seen, before)
	}
	got, err := e.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := got.Get("Tag").AsInt(); n != 3 {
		t.Fatalf("Tag = %d, want the second writer's 3", n)
	}
	// A snapshot begun now reads the committed live object.
	s := e.BeginSnapshot()
	defer s.Release()
	if so, err := s.Get(id); err != nil || !bytes.Equal(encoding.EncodeObject(got), encoding.EncodeObject(so)) {
		t.Fatalf("snapshot reads %v (err %v), want the live object", so, err)
	}
}
