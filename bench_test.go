// Package repro's root benchmark harness: one bench (or bench family) per
// figure of "Composite Objects Revisited" plus ablations of the design
// decisions the paper argues qualitatively. The paper reports no
// quantitative results, so EXPERIMENTS.md records these measurements as
// the quantitative backing for the paper's qualitative claims; the shapes
// (who wins, where crossovers fall), not absolute numbers, are the
// reproduction targets.
package repro

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/encoding"
	"repro/internal/index"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/uid"
	"repro/internal/value"
	"repro/internal/version"
)

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

// partEngine builds a Part class whose Subparts reference kind is
// configurable.
func partEngine(b *testing.B, exclusive, dependent bool) *core.Engine {
	b.Helper()
	cat := schema.NewCatalog()
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Part", Attributes: []schema.AttrSpec{
		schema.NewAttr("Name", schema.StringDomain),
		schema.NewCompositeSetAttr("Subparts", "Part").WithExclusive(exclusive).WithDependent(dependent),
	}}); err != nil {
		b.Fatal(err)
	}
	return core.NewEngine(cat)
}

// buildTree creates a part tree with the given depth and fanout rooted at
// the returned UID (depth 0 = just the root).
func buildTree(b *testing.B, e *core.Engine, depth, fanout int) uid.UID {
	b.Helper()
	root, err := e.New("Part", nil)
	if err != nil {
		b.Fatal(err)
	}
	level := []uid.UID{root.UID()}
	for d := 0; d < depth; d++ {
		var next []uid.UID
		for _, p := range level {
			for f := 0; f < fanout; f++ {
				c, err := e.New("Part", nil, core.ParentSpec{Parent: p, Attr: "Subparts"})
				if err != nil {
					b.Fatal(err)
				}
				next = append(next, c.UID())
			}
		}
		level = next
	}
	return root.UID()
}

// treeNodes is the node count of a buildTree(depth, fanout) tree,
// excluding the root (what ComponentsOf returns).
func treeNodes(depth, fanout int) int {
	n, level := 0, 1
	for d := 0; d < depth; d++ {
		level *= fanout
		n += level
	}
	return n
}

// ---------------------------------------------------------------------
// §3 operations: components-of traversal sweeps
// ---------------------------------------------------------------------

func BenchmarkComponentsOfDepth(b *testing.B) {
	for _, depth := range []int{2, 4, 8, 16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := partEngine(b, true, true)
			// Chain: fanout 1.
			root := buildTree(b, e, depth, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				comps, err := e.ComponentsOf(root, core.QueryOpts{})
				if err != nil || len(comps) != depth {
					b.Fatalf("components = %d, %v", len(comps), err)
				}
			}
		})
	}
}

func BenchmarkComponentsOfFanout(b *testing.B) {
	for _, fanout := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			e := partEngine(b, true, true)
			root := buildTree(b, e, 2, fanout)
			want := fanout + fanout*fanout
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				comps, err := e.ComponentsOf(root, core.QueryOpts{})
				if err != nil || len(comps) != want {
					b.Fatalf("components = %d, %v", len(comps), err)
				}
			}
		})
	}
}

// BenchmarkParentsOf measures the payoff of §2.4's reverse composite
// references: parents-of is O(parents), not a scan of all objects.
func BenchmarkParentsOf(b *testing.B) {
	for _, parents := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("parents=%d", parents), func(b *testing.B) {
			e := partEngine(b, false, false) // shared so many parents are legal
			child, _ := e.New("Part", nil)
			for i := 0; i < parents; i++ {
				p, _ := e.New("Part", nil)
				if err := e.Attach(p.UID(), "Subparts", child.UID()); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps, err := e.ParentsOf(child.UID(), core.QueryOpts{})
				if err != nil || len(ps) != parents {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Deletion Rule cascades
// ---------------------------------------------------------------------

func BenchmarkDeletionCascade(b *testing.B) {
	for _, cfg := range []struct {
		name      string
		exclusive bool
		depth     int
		fanout    int
	}{
		{"DX/n=100", true, 2, 9},   // 1+9+81 = 91 objects
		{"DX/n=1000", true, 3, 9},  // ~820
		{"DX/n=10000", true, 4, 9}, // ~7381
		{"DS/n=1000", false, 3, 9}, // shared chain, single parent each
	} {
		b.Run(cfg.name, func(b *testing.B) {
			// Fixture rebuild stays in the timed region (see
			// evolutionRun); "delete-ns/op" isolates the cascade.
			var total time.Duration
			for i := 0; i < b.N; i++ {
				e := partEngine(b, cfg.exclusive, true)
				root := buildTree(b, e, cfg.depth, cfg.fanout)
				n := e.Len()
				start := time.Now()
				deleted, err := e.Delete(root)
				total += time.Since(start)
				if err != nil || len(deleted) != n {
					b.Fatalf("deleted %d of %d: %v", len(deleted), n, err)
				}
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "delete-ns/op")
		})
	}
}

// ---------------------------------------------------------------------
// Ablation (§2.4): reverse references in the object vs an external index
// ---------------------------------------------------------------------

// externalIndex simulates the design the paper rejected: reverse
// references kept in a separate data structure, costing a level of
// indirection on every parent lookup.
type externalIndex struct {
	parents map[uid.UID][]uid.UID
}

func BenchmarkReverseRefsInObject(b *testing.B) {
	e := partEngine(b, false, false)
	child, _ := e.New("Part", nil)
	for i := 0; i < 8; i++ {
		p, _ := e.New("Part", nil)
		e.Attach(p.UID(), "Subparts", child.UID())
	}
	o, _ := e.Get(child.UID())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(o.Parents()) != 8 {
			b.Fatal("wrong parents")
		}
	}
}

func BenchmarkReverseRefsExternalIndex(b *testing.B) {
	idx := &externalIndex{parents: make(map[uid.UID][]uid.UID)}
	child := uid.UID{Class: 1, Serial: 1}
	for i := 0; i < 8; i++ {
		idx.parents[child] = append(idx.parents[child], uid.UID{Class: 1, Serial: uint64(i + 2)})
	}
	// Fill the index with unrelated entries so the map lookup is honest.
	for i := 0; i < 10000; i++ {
		u := uid.UID{Class: 2, Serial: uint64(i)}
		idx.parents[u] = []uid.UID{{Class: 3, Serial: uint64(i)}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(idx.parents[child]) != 8 {
			b.Fatal("wrong parents")
		}
	}
}

// BenchmarkObjectSizeWithReverseRefs quantifies the cost side of §2.4's
// trade-off: reverse references grow the stored object.
func BenchmarkObjectSizeWithReverseRefs(b *testing.B) {
	for _, parents := range []int{0, 1, 8, 64} {
		b.Run(fmt.Sprintf("parents=%d", parents), func(b *testing.B) {
			e := partEngine(b, false, false)
			child, _ := e.New("Part", map[string]value.Value{"Name": value.Str("bench-part")})
			for i := 0; i < parents; i++ {
				p, _ := e.New("Part", nil)
				e.Attach(p.UID(), "Subparts", child.UID())
			}
			o, _ := e.Get(child.UID())
			var size int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				size = len(encoding.EncodeObject(o))
			}
			b.ReportMetric(float64(size), "bytes/object")
		})
	}
}

// ---------------------------------------------------------------------
// Schema evolution (§4.3): immediate vs deferred flag rewriting
// ---------------------------------------------------------------------

// evolutionRun performs an I2 change over nRefs referenced instances and
// then accesses a fraction of them; deferred should win when the accessed
// fraction is small (the paper's motivation for the operation log). The
// per-iteration fixture rebuild is inside the timed region (so go test's
// iteration calibration stays sane); the reported "evolution-ns/op"
// metric isolates the change-plus-access cost, which is the number
// EXPERIMENTS.md compares.
func evolutionRun(b *testing.B, deferred bool, nRefs, accessed int) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		cat := schema.NewCatalog()
		cat.DefineClass(schema.ClassDef{Name: "C"})
		cat.DefineClass(schema.ClassDef{Name: "Cp", Attributes: []schema.AttrSpec{
			schema.NewCompositeSetAttr("A", "C"),
		}})
		e := core.NewEngine(cat)
		parent, _ := e.New("Cp", nil)
		children := make([]uid.UID, nRefs)
		for j := 0; j < nRefs; j++ {
			c, _ := e.New("C", nil, core.ParentSpec{Parent: parent.UID(), Attr: "A"})
			children[j] = c.UID()
		}
		start := time.Now()
		if err := e.ChangeAttributeType(0, "Cp", "A", schema.ChangeToShared, deferred); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < accessed; j++ {
			if _, err := e.Get(children[j]); err != nil {
				b.Fatal(err)
			}
		}
		total += time.Since(start)
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "evolution-ns/op")
}

func BenchmarkSchemaEvolution(b *testing.B) {
	const nRefs = 1000
	for _, accessed := range []int{0, 10, 100, 1000} {
		b.Run(fmt.Sprintf("immediate/touch=%d", accessed), func(b *testing.B) {
			evolutionRun(b, false, nRefs, accessed)
		})
		b.Run(fmt.Sprintf("deferred/touch=%d", accessed), func(b *testing.B) {
			evolutionRun(b, true, nRefs, accessed)
		})
	}
}

// ---------------------------------------------------------------------
// Locking (§7, Figures 7–9)
// ---------------------------------------------------------------------

func BenchmarkLockCompat(b *testing.B) {
	modes := lock.Modes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := modes[i%len(modes)]
		c := modes[(i/len(modes))%len(modes)]
		lock.Compatible(a, c)
	}
}

// protocolBench acquires and releases the full composite protocol lock
// set against a hierarchy with nClasses component classes.
func protocolBench(b *testing.B, shared bool) {
	cat := schema.NewCatalog()
	cat.DefineClass(schema.ClassDef{Name: "Leaf"})
	prev := "Leaf"
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("L%d", i)
		cat.DefineClass(schema.ClassDef{Name: name, Attributes: []schema.AttrSpec{
			schema.NewCompositeSetAttr("Kids", prev).WithExclusive(!shared).WithDependent(false),
		}})
		prev = name
	}
	e := core.NewEngine(cat)
	root, _ := e.New(prev, nil)
	p := lock.NewProtocol(lock.NewManager(), e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := lock.TxID(i + 1)
		if err := p.LockCompositeWrite(tx, root.UID()); err != nil {
			b.Fatal(err)
		}
		p.M.ReleaseAll(tx)
	}
}

func BenchmarkLockExclusiveProtocol(b *testing.B) { protocolBench(b, false) }
func BenchmarkLockSharedProtocol(b *testing.B)    { protocolBench(b, true) }

// BenchmarkRootLockVsHierarchical compares the [GARZ88] root-locking
// algorithm (lock the roots of the accessed component) with the
// hierarchical protocol (lock the instance + class intents) for direct
// component access in a deep exclusive hierarchy.
func BenchmarkRootLockVsHierarchical(b *testing.B) {
	e := partEngine(b, true, false)
	root := buildTree(b, e, 6, 1) // depth-6 chain
	comps, _ := e.ComponentsOf(root, core.QueryOpts{})
	leaf := comps[len(comps)-1]
	b.Run("rootlock", func(b *testing.B) {
		p := lock.NewProtocol(lock.NewManager(), e)
		for i := 0; i < b.N; i++ {
			tx := lock.TxID(i + 1)
			if err := p.LockViaRoots(tx, leaf, false); err != nil {
				b.Fatal(err)
			}
			p.M.ReleaseAll(tx)
		}
	})
	b.Run("hierarchical", func(b *testing.B) {
		p := lock.NewProtocol(lock.NewManager(), e)
		for i := 0; i < b.N; i++ {
			tx := lock.TxID(i + 1)
			if err := p.LockInstance(tx, leaf, false); err != nil {
				b.Fatal(err)
			}
			p.M.ReleaseAll(tx)
		}
	})
}

// ---------------------------------------------------------------------
// Authorization (§6, Figures 4–6)
// ---------------------------------------------------------------------

// authFixture: one composite object with n components, alice granted sR
// on the root.
func authFixture(b *testing.B, n int) (*core.Engine, *authz.Store, uid.UID, []uid.UID) {
	e := partEngine(b, false, false)
	root, _ := e.New("Part", nil)
	comps := make([]uid.UID, n)
	for i := 0; i < n; i++ {
		c, _ := e.New("Part", nil, core.ParentSpec{Parent: root.UID(), Attr: "Subparts"})
		comps[i] = c.UID()
	}
	st := authz.NewStore(e)
	if err := st.GrantObject("alice", root.UID(), authz.SR); err != nil {
		b.Fatal(err)
	}
	return e, st, root.UID(), comps
}

// BenchmarkImplicitAuthCheck: one stored grant, checks deduce through the
// graph (the paper's storage-minimizing design).
func BenchmarkImplicitAuthCheck(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("components=%d", n), func(b *testing.B) {
			_, st, _, comps := authFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := st.Check("alice", comps[i%len(comps)], authz.Read)
				if err != nil || !ok {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPerObjectAuthCheck: the alternative the paper's implicit
// authorization avoids — one materialized grant per component. Checks are
// O(1) map hits, but the grant storage is O(components); the benchmark
// reports grants stored so EXPERIMENTS.md can show the trade-off.
func BenchmarkPerObjectAuthCheck(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("components=%d", n), func(b *testing.B) {
			grants := make(map[uid.UID]map[string]authz.Auth, n+1)
			e := partEngine(b, false, false)
			root, _ := e.New("Part", nil)
			comps := make([]uid.UID, n)
			grants[root.UID()] = map[string]authz.Auth{"alice": authz.SR}
			for i := 0; i < n; i++ {
				c, _ := e.New("Part", nil, core.ParentSpec{Parent: root.UID(), Attr: "Subparts"})
				comps[i] = c.UID()
				grants[c.UID()] = map[string]authz.Auth{"alice": authz.SR}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, ok := grants[comps[i%len(comps)]]["alice"]
				if !ok || !a.Positive {
					b.Fatal("missing grant")
				}
			}
			b.ReportMetric(float64(n+1), "grants-stored")
		})
	}
}

// BenchmarkGrantOnComposite measures grant-time conflict checking, which
// walks the composite object.
func BenchmarkGrantOnComposite(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("components=%d", n), func(b *testing.B) {
			_, st, root, _ := authFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub := fmt.Sprintf("user%d", i)
				if err := st.GrantObject(sub, root, authz.WR); err != nil {
					b.Fatal(err)
				}
				st.RevokeObject(sub, root)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Versions (§5, Figures 1–3)
// ---------------------------------------------------------------------

func versionFixture(b *testing.B) (*core.Engine, *version.Manager, uid.UID, uid.UID) {
	cat := schema.NewCatalog()
	cat.DefineClass(schema.ClassDef{Name: "D", Versionable: true})
	cat.DefineClass(schema.ClassDef{Name: "C", Versionable: true, Attributes: []schema.AttrSpec{
		schema.NewAttr("Name", schema.StringDomain),
		schema.NewCompositeAttr("A", "D").WithDependent(false),
	}})
	e := core.NewEngine(cat)
	m := version.NewManager(e)
	_, dv, err := m.CreateVersionable(e, "D", nil)
	if err != nil {
		b.Fatal(err)
	}
	g, cv, err := m.CreateVersionable(e, "C", map[string]value.Value{"Name": value.Str("x")})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Attach(e, cv, "A", dv); err != nil {
		b.Fatal(err)
	}
	return e, m, g, cv
}

func BenchmarkDeriveVersion(b *testing.B) {
	e, m, _, cv := versionFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Derive(e, cv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicBind(b *testing.B) {
	e, m, g, _ := versionFixture(b)
	for i := 0; i < 10; i++ {
		info, _ := m.Info(g)
		if _, err := m.Derive(e, info.Versions[len(info.Versions)-1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Resolve(g); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Creation paths: extended model vs the KIM87b baseline
// ---------------------------------------------------------------------

func BenchmarkMakeTopDown(b *testing.B) {
	// Creating components under an existing parent (the only path in the
	// legacy model).
	e := partEngine(b, true, true)
	root, _ := e.New("Part", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.New("Part", nil, core.ParentSpec{Parent: root.UID(), Attr: "Subparts"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMakeBottomUp(b *testing.B) {
	// Assembling pre-existing objects (the extended model's addition).
	e := partEngine(b, true, false)
	ids := make([]uid.UID, b.N)
	for i := range ids {
		o, _ := e.New("Part", nil)
		ids[i] = o.UID()
	}
	root, _ := e.New("Part", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Attach(root.UID(), "Subparts", ids[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMakeComponentCheck(b *testing.B) {
	// The §2.4 algorithm alone: verify + insert reverse ref on attach,
	// measured via attach/detach pairs on a single child.
	e := partEngine(b, true, false)
	root, _ := e.New("Part", nil)
	child, _ := e.New("Part", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Attach(root.UID(), "Subparts", child.UID()); err != nil {
			b.Fatal(err)
		}
		if err := e.Detach(root.UID(), "Subparts", child.UID()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Storage substrate
// ---------------------------------------------------------------------

func BenchmarkEncodeObject(b *testing.B) {
	e := partEngine(b, false, false)
	o, _ := e.New("Part", map[string]value.Value{"Name": value.Str("a part with a name")})
	for i := 0; i < 4; i++ {
		p, _ := e.New("Part", nil)
		e.Attach(p.UID(), "Subparts", o.UID())
	}
	obj, _ := e.Get(o.UID())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encoding.EncodeObject(obj)
	}
}

func BenchmarkDecodeObject(b *testing.B) {
	e := partEngine(b, false, false)
	o, _ := e.New("Part", map[string]value.Value{"Name": value.Str("a part with a name")})
	for i := 0; i < 4; i++ {
		p, _ := e.New("Part", nil)
		e.Attach(p.UID(), "Subparts", o.UID())
	}
	obj, _ := e.Get(o.UID())
	rec := encoding.EncodeObject(obj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encoding.DecodeObject(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Associative queries over the part hierarchy (internal/query)
// ---------------------------------------------------------------------

func BenchmarkQuerySelect(b *testing.B) {
	// A fleet of vehicles; predicates of increasing depth.
	cat := schema.NewCatalog()
	cat.DefineClass(schema.ClassDef{Name: "Body", Attributes: []schema.AttrSpec{
		schema.NewAttr("Weight", schema.IntDomain),
	}})
	cat.DefineClass(schema.ClassDef{Name: "Car", Attributes: []schema.AttrSpec{
		schema.NewAttr("Id", schema.IntDomain),
		schema.NewCompositeAttr("Body", "Body").WithDependent(false),
	}})
	e := core.NewEngine(cat)
	const fleet = 1000
	for i := 0; i < fleet; i++ {
		body, _ := e.New("Body", map[string]value.Value{"Weight": value.Int(int64(i % 200))})
		if _, err := e.New("Car", map[string]value.Value{
			"Id":   value.Int(int64(i)),
			"Body": value.Ref(body.UID()),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("scalar", func(b *testing.B) {
		pred := query.Attr("Id").Lt(value.Int(100))
		for i := 0; i < b.N; i++ {
			got, err := query.Select(e, "Car", false, pred)
			if err != nil || len(got) != 100 {
				b.Fatalf("%d, %v", len(got), err)
			}
		}
	})
	b.Run("path-1-hop", func(b *testing.B) {
		pred := query.Attr("Body", "Weight").Ge(value.Int(150))
		for i := 0; i < b.N; i++ {
			got, err := query.Select(e, "Car", false, pred)
			if err != nil || len(got) != fleet/4 {
				b.Fatalf("%d, %v", len(got), err)
			}
		}
	})
}

// BenchmarkIndexedVsScan: equality selection with and without a hash
// index over a 10k-instance extent.
func BenchmarkIndexedVsScan(b *testing.B) {
	cat := schema.NewCatalog()
	cat.DefineClass(schema.ClassDef{Name: "Part", Attributes: []schema.AttrSpec{
		schema.NewAttr("Material", schema.StringDomain),
	}})
	e := core.NewEngine(cat)
	ix := index.NewManager(e)
	e.SetHook(core.MultiHook{ix})
	mats := []string{"steel", "alu", "brass", "nylon"}
	const n = 10000
	for i := 0; i < n; i++ {
		if _, err := e.New("Part", map[string]value.Value{
			"Material": value.Str(mats[i%len(mats)]),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := ix.CreateIndex("Part", "Material"); err != nil {
		b.Fatal(err)
	}
	pred := query.Attr("Material").Eq(value.Str("brass"))
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, err := query.Select(e, "Part", false, pred)
			if err != nil || len(got) != n/len(mats) {
				b.Fatalf("%d, %v", len(got), err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, err := query.SelectIndexed(e, ix, "Part", false, pred)
			if err != nil || len(got) != n/len(mats) {
				b.Fatalf("%d, %v", len(got), err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Observability overhead (internal/obs)
// ---------------------------------------------------------------------

// BenchmarkObsDisabled pins the cost of the disabled instrumentation on
// the hot traversal path. "baseline" binds a nil registry — every
// instrument is a nil pointer and each emission site is a single branch,
// the closest buildable approximation of no instrumentation at all.
// "registry" is the default configuration: live counters, tracer and
// slow log off. EXPERIMENTS.md records the two; the acceptance budget is
// registry within 5% of baseline.
func BenchmarkObsDisabled(b *testing.B) {
	run := func(b *testing.B, reg *obs.Registry) {
		e := partEngine(b, true, true)
		e.SetObservability(reg)
		root := buildTree(b, e, 8, 2)
		want := treeNodes(8, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			comps, err := e.ComponentsOf(root, core.QueryOpts{})
			if err != nil || len(comps) != want {
				b.Fatalf("components = %d, %v", len(comps), err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, nil) })
	b.Run("registry", func(b *testing.B) { run(b, obs.NewRegistry()) })
	b.Run("tracing", func(b *testing.B) {
		reg := obs.NewRegistry()
		reg.Recorder().SetActive(true)
		run(b, reg)
	})
}

// BenchmarkProfiledTraversal prices the query-profiling layer on the hot
// traversal path. Phase one runs with no ProfCtx attached — every
// emission site is a nil check, the always-on production configuration;
// phase two attaches a fresh ProfCtx per query. The difference,
// "profile-overhead-pct", is what a user pays for (profile ...) and the
// acceptance budget bounds the disabled path's cost. "flight-record-ns"
// prices one op-record append to the recorder ring, the only
// instrumentation that stays hot with profiling off. The op's start time
// is passed in, as every caller has read it already to time the op.
func BenchmarkProfiledTraversal(b *testing.B) {
	e := partEngine(b, true, true)
	root := buildTree(b, e, 8, 2)
	want := treeNodes(8, 2)
	run := func(n int, prof bool) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			var q core.QueryOpts
			if prof {
				q.Prof = obs.NewProfCtx("bench")
			}
			comps, err := e.ComponentsOf(root, q)
			if err != nil || len(comps) != want {
				b.Fatalf("components = %d, %v", len(comps), err)
			}
			if prof {
				q.Prof.Finish()
			}
		}
		return time.Since(start)
	}
	run(10, false) // warm the plan memo
	run(10, true)
	b.ResetTimer()
	off := run(b.N, false)
	on := run(b.N, true)
	b.StopTimer()
	if off > 0 {
		b.ReportMetric((float64(on-off)/float64(off))*100, "profile-overhead-pct")
	}
	f := new(obs.Recorder) // standalone: no registry counters bound
	const appends = 100000
	start := time.Now()
	for i := 0; i < appends; i++ {
		f.Op("bench.op", "root", start, time.Microsecond, "ok", "visited=1")
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/appends, "flight-record-ns")
}

// ---------------------------------------------------------------------
// Commit throughput: group commit under parallel committers
// ---------------------------------------------------------------------

// BenchmarkCommitThroughput measures durable commits (SyncWAL) against
// an on-disk database with 1..32 parallel committers, each transaction
// creating one object. The fsyncs/commit metric is the group-commit
// amortization factor: 1.0 for a lone committer (every commit pays its
// own fsync), well below 1 once concurrent committers share batches.
func BenchmarkCommitThroughput(b *testing.B) {
	for _, committers := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			d, err := db.Open(db.Options{Dir: b.TempDir(), SyncWAL: true})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			if _, err := d.DefineClass(schema.ClassDef{Name: "Note", Attributes: []schema.AttrSpec{
				schema.NewAttr("Body", schema.StringDomain),
			}}); err != nil {
				b.Fatal(err)
			}
			reg := d.Observability()
			fsync0 := reg.Counter("wal_fsync_total").Load()
			commit0 := reg.Counter("txn_commit_total").Load()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						tx := d.Begin()
						if _, err := tx.New("Note", map[string]value.Value{"Body": value.Str("x")}); err != nil {
							b.Error(err)
							tx.Abort()
							return
						}
						if err := tx.Commit(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			commits := reg.Counter("txn_commit_total").Load() - commit0
			fsyncs := reg.Counter("wal_fsync_total").Load() - fsync0
			if commits > 0 {
				b.ReportMetric(float64(fsyncs)/float64(commits), "fsyncs/commit")
			}
		})
	}
}

// BenchmarkNetCommitThroughput is BenchmarkCommitThroughput through the
// TCP front end: each client owns a connection and drives one durable
// commit per request frame — (begin)(make ...)(commit) as a single
// program, so a transaction costs exactly one round trip. Comparing
// fsyncs/commit against the embedded bench shows whether group-commit
// amortization survives the wire; comparing ns/op prices the protocol
// overhead (framing, parse, render) per transaction.
func BenchmarkNetCommitThroughput(b *testing.B) {
	for _, clients := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			d, err := db.Open(db.Options{Dir: b.TempDir(), SyncWAL: true})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			if _, err := d.DefineClass(schema.ClassDef{Name: "Note", Attributes: []schema.AttrSpec{
				schema.NewAttr("Body", schema.StringDomain),
			}}); err != nil {
				b.Fatal(err)
			}
			srv := server.New(d, server.Config{Addr: "127.0.0.1:0", MaxConns: clients + 1})
			if err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			conns := make([]*client.Client, clients)
			for i := range conns {
				if conns[i], err = client.Dial(srv.Addr()); err != nil {
					b.Fatal(err)
				}
				defer conns[i].Close()
			}
			reg := d.Observability()
			fsync0 := reg.Counter("wal_fsync_total").Load()
			commit0 := reg.Counter("txn_commit_total").Load()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for _, c := range conns {
				wg.Add(1)
				go func(c *client.Client) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := c.Do(`(begin) (make Note :Body "x") (commit)`); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			commits := reg.Counter("txn_commit_total").Load() - commit0
			fsyncs := reg.Counter("wal_fsync_total").Load() - fsync0
			if commits > 0 {
				b.ReportMetric(float64(fsyncs)/float64(commits), "fsyncs/commit")
			}
		})
	}
}

// ---------------------------------------------------------------------
// Composite-granularity write admission (§7 protocol as a concurrency
// control): disjoint-hierarchy writers against the global-mutex design
// ---------------------------------------------------------------------

// concurrentWriteDB builds a durable database with an
// independent-exclusive Part hierarchy per writer (so detach never
// reaps the leaf) plus one bare leaf per writer to attach and detach.
func concurrentWriteDB(b *testing.B, workers int) (*db.DB, []uid.UID, []uid.UID) {
	b.Helper()
	d, err := db.Open(db.Options{Dir: b.TempDir(), SyncWAL: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.DefineClass(schema.ClassDef{Name: "Part", Attributes: []schema.AttrSpec{
		schema.NewAttr("Name", schema.StringDomain),
		schema.NewCompositeSetAttr("Subparts", "Part").WithDependent(false),
	}}); err != nil {
		b.Fatal(err)
	}
	roots := make([]uid.UID, workers)
	leaves := make([]uid.UID, workers)
	for w := range roots {
		r, err := d.Make("Part", map[string]value.Value{"Name": value.Str("root")})
		if err != nil {
			b.Fatal(err)
		}
		roots[w] = r.UID()
		// A couple of permanent components so each hierarchy is a real
		// composite object, not a bare instance.
		for i := 0; i < 2; i++ {
			if _, err := d.Make("Part", nil, core.ParentSpec{Parent: r.UID(), Attr: "Subparts"}); err != nil {
				b.Fatal(err)
			}
		}
		l, err := d.Make("Part", nil)
		if err != nil {
			b.Fatal(err)
		}
		leaves[w] = l.UID()
	}
	return d, roots, leaves
}

// runWriters drives b.N mutations split across the writer goroutines and
// reports the aggregate mutation throughput plus the fsync amortization
// achieved by group commit.
func runWriters(b *testing.B, d *db.DB, workers int, op func(worker, iter int) error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	fsync0 := d.Observability().Counter("wal_fsync_total").Load()
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if next.Add(1) > int64(b.N) {
					return
				}
				if err := op(w, i); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "mut/s")
	}
	fsyncs := d.Observability().Counter("wal_fsync_total").Load() - fsync0
	b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/mut")
}

// BenchmarkAttachParallel: each writer attaches and detaches its own bare
// leaf under its own composite root. Admission resolves both sides to
// disjoint unit roots, so writers only share the WAL group committer.
func BenchmarkAttachParallel(b *testing.B) {
	for _, workers := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("writers-%d", workers), func(b *testing.B) {
			d, roots, leaves := concurrentWriteDB(b, workers)
			defer d.Close()
			runWriters(b, d, workers, func(w, i int) error {
				if i%2 == 0 {
					return d.Attach(roots[w], "Subparts", leaves[w])
				}
				return d.Detach(roots[w], "Subparts", leaves[w])
			})
		})
	}
}

// BenchmarkMixedWriters compares composite-granularity admission
// ("granular") against the pre-admission design emulated by one global
// mutex around every mutation ("global"), over a mixed
// attach/set/set/detach workload on disjoint hierarchies. The global
// rows serialize both the engine work and each operation's WAL sync;
// the granular rows overlap them, sharing group-commit fsyncs.
func BenchmarkMixedWriters(b *testing.B) {
	for _, mode := range []string{"granular", "global"} {
		for _, workers := range []int{1, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s-%d", mode, workers), func(b *testing.B) {
				d, roots, leaves := concurrentWriteDB(b, workers)
				defer d.Close()
				var mu sync.Mutex
				step := func(w, i int) error {
					switch i % 4 {
					case 0:
						return d.Attach(roots[w], "Subparts", leaves[w])
					case 1:
						return d.Set(roots[w], "Name", value.Str("r"))
					case 2:
						return d.Set(leaves[w], "Name", value.Str("l"))
					default:
						return d.Detach(roots[w], "Subparts", leaves[w])
					}
				}
				runWriters(b, d, workers, func(w, i int) error {
					if mode == "global" {
						mu.Lock()
						defer mu.Unlock()
					}
					return step(w, i)
				})
			})
		}
	}
}

// ---------------------------------------------------------------------
// MVCC snapshot reads: lock-free queries vs the RLock read path
// ---------------------------------------------------------------------

// BenchmarkSnapshotReadUnderWriters measures full-tree snapshot
// traversal latency while writer goroutines continuously churn node
// attributes. The snapshot path takes neither the engine latch nor §7
// locks, so the reported per-read time is what a reporting query costs
// regardless of write pressure.
func BenchmarkSnapshotReadUnderWriters(b *testing.B) {
	e := partEngine(b, true, true)
	root := buildTree(b, e, 6, 3)
	want := treeNodes(6, 3)
	kids, err := e.ComponentsOf(root, core.QueryOpts{Level: 1})
	if err != nil || len(kids) == 0 {
		b.Fatalf("children: %v, %v", kids, err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := kids[(i*writers+w)%len(kids)]
				if err := e.Set(id, "Name", value.Str("churn")); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		s := e.BeginSnapshot()
		got, err := s.ComponentsOf(root, core.QueryOpts{})
		s.Release()
		if err != nil || len(got) != want {
			b.Fatalf("components: %d, %v", len(got), err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "snapshot-read-ns")
}

// BenchmarkLongScanWriterStall measures the p99 latency a single-object
// Set pays while a long full-tree scan runs continuously alongside it.
// The rlock scanner holds the engine's shared latch for the whole
// traversal, so every Set (exclusive latch) waits out the scan in
// progress; the snapshot scanner never touches the latch, so writer
// latency is just the mutation. The ratio of the two writer-stall-ns
// metrics is the §8-style reader/writer isolation win.
func BenchmarkLongScanWriterStall(b *testing.B) {
	for _, mode := range []string{"rlock", "snapshot"} {
		b.Run(mode, func(b *testing.B) {
			e := partEngine(b, true, true)
			root := buildTree(b, e, 7, 4)
			want := treeNodes(7, 4)
			leaf, err := e.New("Part", nil)
			if err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			ready := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				first := true
				for {
					select {
					case <-stop:
						return
					default:
					}
					var got []uid.UID
					var err error
					if mode == "rlock" {
						got, err = e.ComponentsOf(root, core.QueryOpts{})
					} else {
						s := e.BeginSnapshot()
						got, err = s.ComponentsOf(root, core.QueryOpts{})
						s.Release()
					}
					if err != nil || len(got) != want {
						b.Errorf("scan: %d, %v", len(got), err)
						return
					}
					if first {
						close(ready)
						first = false
					}
				}
			}()
			// Don't start timing until the scanner is demonstrably
			// running — otherwise a small b.N finishes before the first
			// scan even acquires the latch and the baseline shows no
			// stall.
			<-ready
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := e.Set(leaf.UID(), "Name", value.Str("w")); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			idx := len(lat) * 99 / 100
			if idx >= len(lat) {
				idx = len(lat) - 1
			}
			b.ReportMetric(float64(lat[idx].Nanoseconds()), "writer-stall-ns")
		})
	}
}

// BenchmarkHeapPerObject measures the memory one object costs once a
// database is open: b.N units of the benchmark's write_small shape (a
// Document, 4 Sections, 32 Paragraphs with 64-byte text, a Title index)
// are built through db.Make, the database is closed and reopened, and
// after a collection HeapAlloc over the object count is reported as
// heap_B/object. ns/op is the build and reopen time and means little.
func BenchmarkHeapPerObject(b *testing.B) {
	dir := b.TempDir()
	d, err := db.Open(db.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	for _, def := range []schema.ClassDef{
		{Name: "Paragraph", Attributes: []schema.AttrSpec{schema.NewAttr("Text", schema.StringDomain)}},
		{Name: "Section", Attributes: []schema.AttrSpec{
			schema.NewAttr("Heading", schema.StringDomain),
			schema.NewCompositeSetAttr("Content", "Paragraph"),
		}},
		{Name: "Document", Attributes: []schema.AttrSpec{
			schema.NewAttr("Title", schema.StringDomain),
			schema.NewCompositeSetAttr("Sections", "Section"),
		}},
	} {
		if _, err := d.DefineClass(def); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.CreateIndex("Document", "Title"); err != nil {
		b.Fatal(err)
	}
	mk := func(class string, attrs map[string]value.Value, parents ...core.ParentSpec) uid.UID {
		o, err := d.Make(class, attrs, parents...)
		if err != nil {
			b.Fatal(err)
		}
		return o.UID()
	}
	for u := 0; u < b.N; u++ {
		doc := mk("Document", map[string]value.Value{"Title": value.Str(fmt.Sprintf("doc-%d", u))})
		for s := 0; s < 4; s++ {
			sec := mk("Section", map[string]value.Value{"Heading": value.Str(fmt.Sprintf("h%d", s))},
				core.ParentSpec{Parent: doc, Attr: "Sections"})
			for p := 0; p < 8; p++ {
				mk("Paragraph", map[string]value.Value{"Text": value.Str(fmt.Sprintf("%064d", u*32+s*8+p))},
					core.ParentSpec{Parent: sec, Attr: "Content"})
			}
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	if d, err = db.Open(db.Options{Dir: dir}); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/float64(d.Engine().Len()), "heap_B/object")
}
