// Command figures regenerates every figure of "Composite Objects
// Revisited" (Kim, Bertino, Garza; SIGMOD 1989) from the implementation,
// printing the computed artifact next to a summary of what the paper
// shows. Run with -fig N (1..9), -fig garz88, or -fig all.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
	"repro/internal/version"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1..9, garz88, or all")
	flag.Parse()
	figs := map[string]func() string{
		"1":      figure1,
		"2":      figure2,
		"3":      figure3,
		"4":      figure4,
		"5":      figure5,
		"6":      figure6,
		"7":      figure7,
		"8":      figure8,
		"9":      figure9,
		"garz88": garz88,
	}
	if *fig == "all" {
		for _, k := range []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "garz88"} {
			fmt.Print(figs[k]())
			fmt.Println()
		}
		return
	}
	fn, ok := figs[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	fmt.Print(fn())
}

func header(title string) string {
	bar := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, bar)
}

// cdSetup builds versionable classes C --A--> D with the given reference
// kind, as in §5.2.
func cdSetup(exclusive, dependent bool) (*core.Engine, *version.Manager) {
	cat := schema.NewCatalog()
	must(cat.DefineClass(schema.ClassDef{Name: "D", Versionable: true}))
	must(cat.DefineClass(schema.ClassDef{Name: "C", Versionable: true, Attributes: []schema.AttrSpec{
		schema.NewCompositeAttr("A", "D").WithExclusive(exclusive).WithDependent(dependent),
	}}))
	e := core.NewEngine(cat)
	return e, version.NewManager(e)
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

func figure1() string {
	var b strings.Builder
	b.WriteString(header("Figure 1 — Deriving a new version of a composite object"))
	b.WriteString("Paper: copying version instance c-i, which holds an exclusive\n" +
		"reference to version instance d-k, rewrites the new copy's reference\n" +
		"to the generic instance g-d (independent) or to Nil (dependent).\n\n")

	// Independent exclusive.
	e, m := cdSetup(true, false)
	gd, dk := must2(m.CreateVersionable(e, "D", nil))
	_, ci := must2(m.CreateVersionable(e, "C", nil))
	check(m.Attach(e, ci, "A", dk))
	cj := must(m.Derive(e, ci))
	ciObj := must(e.Get(ci))
	cjObj := must(e.Get(cj))
	fmt.Fprintf(&b, "independent exclusive:\n")
	fmt.Fprintf(&b, "  c-i.A = %s   (static reference to version instance d-k %s)\n", ciObj.Get("A"), dk)
	fmt.Fprintf(&b, "  c-j.A = %s   (rewritten to generic instance g-d %s)\n\n", cjObj.Get("A"), gd)

	// Dependent exclusive.
	e2, m2 := cdSetup(true, true)
	_, dk2 := must2(m2.CreateVersionable(e2, "D", nil))
	_, ci2 := must2(m2.CreateVersionable(e2, "C", nil))
	check(m2.Attach(e2, ci2, "A", dk2))
	cj2 := must(m2.Derive(e2, ci2))
	cj2Obj := must(e2.Get(cj2))
	fmt.Fprintf(&b, "dependent exclusive:\n")
	fmt.Fprintf(&b, "  c-j.A = %s   (dependent reference set to Nil)\n", cj2Obj.Get("A"))
	return b.String()
}

func must2(a, b uid.UID, err error) (uid.UID, uid.UID) {
	if err != nil {
		panic(err)
	}
	return a, b
}

func figure2() string {
	var b strings.Builder
	b.WriteString(header("Figure 2 — Versioned composite objects (rules CV-1X, CV-2X)"))
	b.WriteString("Paper: different version instances of g-c may hold exclusive\n" +
		"references to different version instances of g-d.\n\n")
	e, m := cdSetup(true, false)
	_, d0 := must2(m.CreateVersionable(e, "D", nil))
	d1 := must(m.Derive(e, d0))
	_, c0 := must2(m.CreateVersionable(e, "C", nil))
	c1 := must(m.Derive(e, c0))
	check(m.Attach(e, c0, "A", d0))
	// Derive rewrote c1.A to the generic; clear it, then bind to d1.
	c1Obj := must(e.Get(c1))
	if r, ok := c1Obj.Get("A").AsRef(); ok {
		check(m.Detach(e, c1, "A", r))
	}
	check(m.Attach(e, c1, "A", d1))
	fmt.Fprintf(&b, "  c.v0.A -> %s (d.v0)\n", must(e.Get(c0)).Get("A"))
	fmt.Fprintf(&b, "  c.v1.A -> %s (d.v1)\n", must(e.Get(c1)).Get("A"))
	// The forbidden case: a second exclusive reference to d0.
	c2 := must(m.Derive(e, c0))
	c2Obj := must(e.Get(c2))
	if r, ok := c2Obj.Get("A").AsRef(); ok {
		check(m.Detach(e, c2, "A", r))
	}
	err := m.Attach(e, c2, "A", d0)
	fmt.Fprintf(&b, "  c.v2.A -> d.v0 rejected: %v\n", err != nil)
	return b.String()
}

func figure3() string {
	var b strings.Builder
	b.WriteString(header("Figure 3 — Reverse composite generic references with ref-counts"))
	b.WriteString("Paper (3.b): a1.v0 -> b1.v0 and a1.v1 -> b1.v1 yield ONE reverse\n" +
		"composite generic reference b1 -> a1 with ref-count 2; removing the\n" +
		"version-level references decrements it and removes it at zero.\n\n")
	e, m := cdSetup(true, false)
	b1, b1v0 := must2(m.CreateVersionable(e, "D", nil))
	b1v1 := must(m.Derive(e, b1v0))
	a1, a1v0 := must2(m.CreateVersionable(e, "C", nil))
	a1v1 := must(m.Derive(e, a1v0))
	check(m.Attach(e, a1v0, "A", b1v0))
	check(m.Attach(e, a1v1, "A", b1v1))
	show := func(when string) {
		gObj := must(e.Get(b1))
		i := gObj.FindReverse(a1)
		if i < 0 {
			fmt.Fprintf(&b, "  %-28s generic entry b1->a1: (removed)\n", when)
			return
		}
		fmt.Fprintf(&b, "  %-28s generic entry b1->a1: %s\n", when, gObj.Reverse()[i])
	}
	show("after both references:")
	parents := must(e.ParentsOf(b1, core.QueryOpts{}))
	fmt.Fprintf(&b, "  (parents-of b1) = %v   (answers a1 though all refs are static)\n", parents)
	check(m.Detach(e, a1v0, "A", b1v0))
	show("after removing a1.v0->b1.v0:")
	check(m.Detach(e, a1v1, "A", b1v1))
	show("after removing a1.v1->b1.v1:")
	return b.String()
}

// figure45Graph builds the object graphs of Figures 4 and 5.
func figure45Graph() (*core.Engine, *authz.Store, map[string]uid.UID) {
	cat := schema.NewCatalog()
	must(cat.DefineClass(schema.ClassDef{Name: "Node", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Parts", "Node").WithExclusive(false).WithDependent(false),
	}}))
	e := core.NewEngine(cat)
	st := authz.NewStore(e)
	names := map[string]uid.UID{}
	mk := func(n string) uid.UID {
		o := must(e.New("Node", nil))
		names[n] = o.UID()
		return o.UID()
	}
	for _, n := range []string{"i", "k4", "m", "n", "o4", "j", "k", "o'", "p", "o", "q"} {
		mk(n)
	}
	link := func(p, c string) { check(e.Attach(names[p], "Parts", names[c])) }
	// Figure 4: i -> k4, m; m -> n; n -> o4.
	link("i", "k4")
	link("i", "m")
	link("m", "n")
	link("n", "o4")
	// Figure 5: j -> o', p; k -> o', o, q.
	link("j", "o'")
	link("j", "p")
	link("k", "o'")
	link("k", "o")
	link("k", "q")
	return e, st, names
}

func figure4() string {
	var b strings.Builder
	b.WriteString(header("Figure 4 — Composite object as a unit of authorization"))
	b.WriteString("Paper: a Read grant on the root Instance[i] implies Read on each\n" +
		"component Instance[k], [m], [n], [o].\n\n")
	_, st, names := figure45Graph()
	check(st.GrantObject("user", names["i"], authz.SR))
	for _, n := range []string{"i", "k4", "m", "n", "o4"} {
		ok := must(st.Check("user", names[n], authz.Read))
		okW := must(st.Check("user", names[n], authz.Write))
		fmt.Fprintf(&b, "  %-3s Read=%v Write=%v\n", strings.TrimSuffix(n, "4"), ok, okW)
	}
	out := must(st.Check("user", names["j"], authz.Read))
	fmt.Fprintf(&b, "  j   Read=%v (outside the composite object)\n", out)
	return b.String()
}

func figure5() string {
	var b strings.Builder
	b.WriteString(header("Figure 5 — A component shared by two composite objects"))
	b.WriteString("Paper: Instance[o'] is a component of the composite objects rooted\n" +
		"at Instance[j] and Instance[k]; grants on both imply authorizations\n" +
		"on o' that must be combined.\n\n")
	_, st, names := figure45Graph()
	check(st.GrantObject("user", names["j"], authz.SR))
	check(st.GrantObject("user", names["k"], authz.SW))
	res := must(st.Effective("user", names["o'"]))
	fmt.Fprintf(&b, "  grant sR on j, sW on k\n")
	fmt.Fprintf(&b, "  effective on o' = %s   (the paper: \"a strong W authorization,\n"+
		"  which in turn implies a strong R\")\n", res)
	for _, n := range []string{"p", "o", "q"} {
		r := must(st.Effective("user", names[n]))
		fmt.Fprintf(&b, "  effective on %-2s = %s\n", n, r)
	}
	return b.String()
}

func figure6() string {
	var b strings.Builder
	b.WriteString(header("Figure 6 — Implicit authorization on a shared component"))
	b.WriteString("Rows: grant on Instance[j]; columns: grant on Instance[k]; cell:\n" +
		"resulting authorization on Instance[o'] (computed from the\n" +
		"implication and override rules; 'Conflict' as in the paper).\n\n")
	b.WriteString(authz.FormatFigure6())
	return b.String()
}

func figure7() string {
	var b strings.Builder
	b.WriteString(header("Figure 7 — Compatibility: granularity + exclusive composite locking"))
	b.WriteString("Y = compatible. Derived from the claims model; matches the paper's\n" +
		"stated properties (IS∥IX, ISO×IX, IXO/SIXO×{IS,IX}).\n\n")
	b.WriteString(lock.FormatMatrix(lock.ExclusiveHierarchyModes))
	return b.String()
}

func figure8() string {
	var b strings.Builder
	b.WriteString(header("Figure 8 — Compatibility: + shared composite locking (ISOS/IXOS/SIXOS)"))
	b.WriteString("Y = compatible. Shared-regime writers exclude all other composite\n" +
		"users of the class; readers coexist across regimes (Topology Rule 3\n" +
		"makes the exclusive- and shared-component instance sets disjoint).\n\n")
	b.WriteString(lock.FormatMatrix(lock.Modes))
	return b.String()
}

func figure9() string {
	var b strings.Builder
	b.WriteString(header("Figure 9 — §7 locking protocol examples"))
	b.WriteString("Classes I, J, K over component classes C (exclusive from I, shared\n" +
		"from J and K) and W. Example 1 updates the composite object rooted\n" +
		"at i; example 2 reads the one rooted at k; example 3 updates the one\n" +
		"rooted at j.\n\n")
	cat := schema.NewCatalog()
	must(cat.DefineClass(schema.ClassDef{Name: "W"}))
	must(cat.DefineClass(schema.ClassDef{Name: "C", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Ws", "W").WithDependent(false),
	}}))
	must(cat.DefineClass(schema.ClassDef{Name: "I", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Cs", "C").WithDependent(false),
	}}))
	for _, n := range []string{"J", "K"} {
		must(cat.DefineClass(schema.ClassDef{Name: n, Attributes: []schema.AttrSpec{
			schema.NewCompositeSetAttr("Cs", "C").WithExclusive(false).WithDependent(false),
		}}))
	}
	e := core.NewEngine(cat)
	p := lock.NewProtocol(lock.NewManager(), e)
	w := must(e.New("W", nil))
	wp := must(e.New("W", nil))
	c := must(e.New("C", map[string]value.Value{"Ws": value.RefSet(w.UID())}))
	cp := must(e.New("C", map[string]value.Value{"Ws": value.RefSet(wp.UID())}))
	i := must(e.New("I", map[string]value.Value{"Cs": value.RefSet(c.UID())}))
	_ = must(e.New("J", map[string]value.Value{"Cs": value.RefSet(cp.UID())}))
	k := must(e.New("K", map[string]value.Value{"Cs": value.RefSet(cp.UID())}))

	check(p.LockCompositeWrite(1, i.UID()))
	fmt.Fprintf(&b, "example 1 (update CO rooted at i):  I:IX  i:X  C:IXO  W:IXO\n")
	check(p.LockCompositeRead(2, k.UID()))
	fmt.Fprintf(&b, "example 2 (read CO rooted at k):    K:IS  k:S  C:ISOS W:ISO   -> GRANTED alongside 1\n")
	blocked := !p.M.TryLock(3, lock.ClassGranule("C"), lock.IXOS)
	fmt.Fprintf(&b, "example 3 (update CO rooted at j):  J:IX  j:X  C:IXOS W:IXO  -> BLOCKED (C IXOS vs IXO/ISOS): %v\n", blocked)
	return b.String()
}

func garz88() string {
	var b strings.Builder
	b.WriteString(header("GARZ88 root-locking anomaly under shared references (§7)"))
	b.WriteString("T1 S-locks Instance[o'] via its roots {j,k}; T2 X-locks Instance[o]\n" +
		"(a root). Both are granted, yet their implicit locks conflict on q —\n" +
		"which is why the root-locking algorithm cannot be used with shared\n" +
		"composite references.\n\n")
	cat := schema.NewCatalog()
	must(cat.DefineClass(schema.ClassDef{Name: "Leaf"}))
	must(cat.DefineClass(schema.ClassDef{Name: "Root", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Kids", "Leaf").WithExclusive(false).WithDependent(false),
	}}))
	e := core.NewEngine(cat)
	p := lock.NewProtocol(lock.NewManager(), e)
	op := must(e.New("Leaf", nil))
	q := must(e.New("Leaf", nil))
	j := must(e.New("Root", nil))
	k := must(e.New("Root", nil))
	o := must(e.New("Root", nil))
	for _, pair := range [][2]uid.UID{{j.UID(), op.UID()}, {k.UID(), op.UID()}, {k.UID(), q.UID()}, {o.UID(), q.UID()}} {
		check(e.Attach(pair[0], "Kids", pair[1]))
	}
	check(p.LockViaRoots(1, op.UID(), false))
	fmt.Fprintf(&b, "  T1: S on roots(o') = {j %v, k %v}  GRANTED\n", j.UID(), k.UID())
	check(p.LockViaRoots(2, o.UID(), true))
	fmt.Fprintf(&b, "  T2: X on roots(o)  = {o %v}        GRANTED\n", o.UID())
	conflicts := must(p.ImplicitConflicts([]lock.TxID{1, 2}))
	var lines []string
	for _, pair := range conflicts {
		lines = append(lines, fmt.Sprintf("    %v: T%d holds implicit %s via %v, T%d holds implicit %s via %v",
			pair[0].Obj, pair[0].Tx, pair[0].Mode, pair[0].Root, pair[1].Tx, pair[1].Mode, pair[1].Root))
	}
	sort.Strings(lines)
	fmt.Fprintf(&b, "  undetected implicit conflicts: %d\n%s\n", len(conflicts), strings.Join(lines, "\n"))
	return b.String()
}
