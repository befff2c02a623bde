package sexpr

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// (profile expr) evaluates expr with a cost collector attached and
// returns the pretty-printed cost tree instead of expr's value: objects
// visited, cache hits/misses, WAL bytes, versions
// walked, and lock waits, attributed to exactly this evaluation. The
// collector rides the QueryOpts of every §3 query expr issues, the
// active snapshot (if one is pinned), and the db's ambient sinks (WAL,
// lock manager) — the latter are exact because the interpreter
// evaluates serially.
func evalProfile(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (profile expr): %w", ErrEval)
	}
	if in.prof != nil {
		return value.Nil, fmt.Errorf("(profile ...) does not nest: %w", ErrEval)
	}
	p := obs.NewProfCtx(args[0].String())
	in.prof = p
	in.DB.AttachProf(p)
	if in.snap != nil {
		in.snap.SetProf(p)
	}
	v, err := in.Eval(args[0])
	if in.snap != nil {
		in.snap.SetProf(nil)
	}
	in.DB.AttachProf(nil)
	in.prof = nil
	p.Finish()
	in.DB.ObserveProfile(p.Wall())
	if err != nil {
		return value.Nil, err
	}
	return value.Str(p.Report() + "\n  result: " + v.String() + "\n"), nil
}

// (explain expr) describes the plan of a §3 query or a (select ...)
// without executing it: traversal direction, the edge filter and the
// root class's composite-attribute plan, the Definition 1 partition
// sets an upward query consults, whether a select probes an index or
// scans the extent, and which read path (committed objects, the open
// transaction's view, or a pinned MVCC snapshot) would serve it.
func evalExplain(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (explain expr): %w", ErrEval)
	}
	n := args[0]
	if n.Kind != NList || len(n.Kids) == 0 || n.Kids[0].Kind != NSym {
		return value.Nil, fmt.Errorf("(explain ...) wants a query form, got %s: %w", n, ErrEval)
	}
	op := strings.ToLower(n.Kids[0].Text)
	var b strings.Builder
	fmt.Fprintf(&b, "explain %s\n  op: %s\n", n, op)
	switch op {
	case "components-of":
		return in.explainTraversal(&b, op, n.Kids[1:], true)
	case "parents-of", "ancestors-of":
		return in.explainTraversal(&b, op, n.Kids[1:], false)
	case "roots-of":
		b.WriteString(in.sourceLine())
		b.WriteString("  direction: up, to fixpoint (roots = ancestors with no parents)\n")
		b.WriteString("  partitions: IX + DX + IS + DS (all reverse references)\n")
		b.WriteString("  cache: ancestor closure cache consulted per node\n")
		return value.Str(b.String()), nil
	case "get":
		b.WriteString(in.sourceLine())
		b.WriteString("  access: direct object fetch by UID (no traversal)\n")
		return value.Str(b.String()), nil
	case "select":
		return in.explainSelect(&b, n.Kids[1:])
	default:
		b.WriteString("  no static plan for this form; (profile ...) executes it and measures\n")
		return value.Str(b.String()), nil
	}
}

// sourceLine reports which read path serves the query.
func (in *Interp) sourceLine() string {
	if in.snap != nil {
		return fmt.Sprintf("  source: mvcc snapshot seq=%d (lock-free version-chain reads)\n", in.snap.Seq())
	}
	if in.tx != nil {
		return fmt.Sprintf("  source: transaction %d view (its own writes over the committed objects; shared latch; shared plan memo)\n", in.tx.ID())
	}
	return "  source: committed objects (shared latch; shared plan memo)\n"
}

// explainTraversal describes components-of (down) and parents-of /
// ancestors-of (up).
func (in *Interp) explainTraversal(b *strings.Builder, op string, args []Node, down bool) (value.Value, error) {
	if len(args) < 1 {
		return value.Nil, fmt.Errorf("usage: (explain (%s obj ...)): %w", op, ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	q, err := in.parseQueryOpts(args[1:])
	if err != nil {
		return value.Nil, err
	}
	b.WriteString(in.sourceLine())
	className := "?"
	if cl, err := in.DB.Catalog().ClassByID(id.Class); err == nil {
		className = cl.Name
	}
	fmt.Fprintf(b, "  root: %s class %s\n", value.Ref(id), className)
	edges := "all composite attributes"
	switch {
	case q.Exclusive:
		edges = "exclusive composite attributes only"
	case q.Shared:
		edges = "shared composite attributes only"
	}
	if down {
		fmt.Fprintf(b, "  direction: down (forward composite references)\n  edges: %s\n", edges)
		if attrs, err := in.DB.Catalog().Attributes(className); err == nil {
			b.WriteString(planLine(className, attrs, q.Exclusive, q.Shared))
		}
		b.WriteString("  (plans for other classes resolve from the plan memo as the walk reaches them)\n")
	} else {
		parts := "IX + DX + IS + DS (all reverse references)"
		switch {
		case q.Exclusive:
			parts = "IX + DX (exclusive reverse references)"
		case q.Shared:
			parts = "IS + DS (shared reverse references)"
		}
		depth := "one level (direct parents)"
		if op == "ancestors-of" {
			depth = "to fixpoint (breadth-first over reverse references)"
		}
		fmt.Fprintf(b, "  direction: up, %s\n  partitions: %s\n", depth, parts)
	}
	if q.Level > 0 {
		fmt.Fprintf(b, "  level: bounded to %d\n", q.Level)
	} else {
		b.WriteString("  level: unbounded\n")
	}
	if len(q.Classes) > 0 {
		fmt.Fprintf(b, "  classes: results filtered to %s (and subclasses)\n", strings.Join(q.Classes, ", "))
	}
	return value.Str(b.String()), nil
}

// planLine renders the root class's composite-attribute plan under the
// edge filter — the same attribute set walker.planFor would compute.
func planLine(class string, attrs []schema.AttrSpec, exclusive, shared bool) string {
	var parts []string
	for _, a := range attrs {
		if !a.Composite {
			continue
		}
		if exclusive && !a.Exclusive {
			continue
		}
		if shared && a.Exclusive {
			continue
		}
		tag := "shared"
		if a.Exclusive {
			tag = "exclusive"
		}
		if a.Dependent {
			tag += " dependent"
		}
		parts = append(parts, fmt.Sprintf("%s (%s)", a.Name, tag))
	}
	if len(parts) == 0 {
		return fmt.Sprintf("  plan %s: no composite attributes pass the filter (empty traversal)\n", class)
	}
	return fmt.Sprintf("  plan %s: %s\n", class, strings.Join(parts, ", "))
}

// explainSelect reports index probe vs extent scan for (select ...).
func (in *Interp) explainSelect(b *strings.Builder, args []Node) (value.Value, error) {
	if len(args) < 1 {
		return value.Nil, fmt.Errorf("usage: (explain (select Class ...)): %w", ErrEval)
	}
	class, err := symName(args[0])
	if err != nil {
		return value.Nil, err
	}
	_, kw, err := splitKeywords(args[1:])
	if err != nil {
		return value.Nil, err
	}
	deep := false
	if v, ok := kw.get("deep"); ok {
		deep, _ = boolArg(v)
	}
	b.WriteString(in.sourceLine())
	scope := class
	if deep {
		scope += " and subclasses"
	}
	where, hasWhere := kw.get("where")
	if attr, ok := indexableEq(where, hasWhere); ok && in.DB.Indexes().Has(class, attr) {
		fmt.Fprintf(b, "  access: index probe on %s.%s, residual predicate on matches\n", class, attr)
	} else {
		fmt.Fprintf(b, "  access: extent scan over %s\n", scope)
	}
	if !hasWhere {
		b.WriteString("  predicate: none (full extent)\n")
	} else {
		fmt.Fprintf(b, "  predicate: %s\n", where)
	}
	return value.Str(b.String()), nil
}

// indexableEq finds a top-level (= Attr v) equality — directly or as a
// conjunct of (and ...) — whose path is a single attribute, the shape
// SelectIndexed can answer with an index probe.
func indexableEq(n Node, ok bool) (string, bool) {
	if !ok {
		return "", false
	}
	if n.Kind == NQuote {
		return indexableEq(n.Kids[0], true)
	}
	if n.Kind != NList || len(n.Kids) == 0 || n.Kids[0].Kind != NSym {
		return "", false
	}
	switch strings.ToLower(n.Kids[0].Text) {
	case "=":
		if len(n.Kids) == 3 && n.Kids[1].Kind == NSym {
			return n.Kids[1].Text, true
		}
	case "and":
		for _, k := range n.Kids[1:] {
			if attr, found := indexableEq(k, true); found {
				return attr, true
			}
		}
	}
	return "", false
}

// (flight dump|clear|status) exposes the recorder's flight view, the
// always-on black box: dump renders every retained record oldest first,
// clear empties the ring, status returns the record count.
func evalFlight(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (flight dump|clear|status): %w", ErrEval)
	}
	verb, err := symName(args[0])
	if err != nil {
		return value.Nil, err
	}
	rec := in.DB.Observability().Recorder()
	switch strings.ToLower(verb) {
	case "dump":
		recs := rec.Records()
		if len(recs) == 0 {
			return value.Str("flight recorder: empty\n"), nil
		}
		var b strings.Builder
		fmt.Fprintf(&b, "flight recorder: %d records\n", len(recs))
		for _, r := range recs {
			b.WriteString("  " + r.String() + "\n")
		}
		return value.Str(b.String()), nil
	case "clear":
		rec.Clear()
		return value.Bool(true), nil
	case "status":
		return value.Int(int64(len(rec.Records()))), nil
	default:
		return value.Nil, fmt.Errorf("unknown flight verb %q (want dump/clear/status): %w", verb, ErrEval)
	}
}
