package sexpr

import (
	"fmt"
	"strings"

	"repro/internal/query"
	"repro/internal/value"
)

// (select Class [:deep true] [:where PRED]) — associative queries over a
// class extent, with predicates over attribute paths:
//
//	PRED := (= PATH v) | (!= PATH v) | (< PATH v) | (<= PATH v)
//	      | (> PATH v) | (>= PATH v)
//	      | (exists PATH)
//	      | (and PRED...) | (or PRED...) | (not PRED)
//	      | (any PATH PRED) | (all PATH PRED)
//	      | (component-of obj)
//	PATH := Attr | (path Attr Attr ...)
//
// Example (the README's query): vehicles whose body weighs over 100 —
//
//	(select Vehicle :where (> (path Body Weight) 100))
func evalSelect(in *Interp, args []Node) (value.Value, error) {
	if len(args) < 1 {
		return value.Nil, fmt.Errorf("usage: (select Class [:deep t] [:where pred]): %w", ErrEval)
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
		if deep, err = boolArg(v); err != nil {
			return value.Nil, err
		}
	}
	var pred query.Expr
	if v, ok := kw.get("where"); ok {
		if pred, err = in.parsePredicate(v); err != nil {
			return value.Nil, err
		}
	}
	ids, err := query.SelectIndexed(in.DB.Engine(), in.DB.Indexes(), class, deep, pred)
	if err != nil {
		return value.Nil, err
	}
	return refsToValue(ids), nil
}

// (create-index Class Attr) declares a secondary index; (drop-index Class
// Attr) removes it. Equality selections use indexes automatically.
func evalCreateIndex(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 2 {
		return value.Nil, fmt.Errorf("usage: (create-index Class Attr): %w", ErrEval)
	}
	class, err := symName(args[0])
	if err != nil {
		return value.Nil, err
	}
	attr, err := symName(args[1])
	if err != nil {
		return value.Nil, err
	}
	if err := in.DB.CreateIndex(class, attr); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalDropIndex(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 2 {
		return value.Nil, fmt.Errorf("usage: (drop-index Class Attr): %w", ErrEval)
	}
	class, err := symName(args[0])
	if err != nil {
		return value.Nil, err
	}
	attr, err := symName(args[1])
	if err != nil {
		return value.Nil, err
	}
	if err := in.DB.DropIndex(class, attr); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

// parsePath reads a PATH node.
func parsePath(n Node) (*query.Path, error) {
	if n.Kind == NSym {
		return query.Attr(n.Text), nil
	}
	if n.Kind == NQuote {
		return parsePath(n.Kids[0])
	}
	if n.Kind == NList && len(n.Kids) >= 2 && n.Kids[0].IsSym("path") {
		segs := make([]string, 0, len(n.Kids)-1)
		for _, k := range n.Kids[1:] {
			s, err := symName(k)
			if err != nil {
				return nil, err
			}
			segs = append(segs, s)
		}
		return query.Attr(segs...), nil
	}
	return nil, fmt.Errorf("expected a path, got %s: %w", n, ErrEval)
}

// parsePredicate reads a PRED node.
func (in *Interp) parsePredicate(n Node) (query.Expr, error) {
	if n.Kind == NQuote {
		return in.parsePredicate(n.Kids[0])
	}
	if n.Kind != NList || len(n.Kids) == 0 || n.Kids[0].Kind != NSym {
		return nil, fmt.Errorf("bad predicate %s: %w", n, ErrEval)
	}
	op := strings.ToLower(n.Kids[0].Text)
	args := n.Kids[1:]
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		if len(args) != 2 {
			return nil, fmt.Errorf("(%s path value): %w", op, ErrEval)
		}
		p, err := parsePath(args[0])
		if err != nil {
			return nil, err
		}
		v, err := in.Eval(args[1])
		if err != nil {
			return nil, err
		}
		switch op {
		case "=":
			return p.Eq(v), nil
		case "!=":
			return p.Ne(v), nil
		case "<":
			return p.Lt(v), nil
		case "<=":
			return p.Le(v), nil
		case ">":
			return p.Gt(v), nil
		default:
			return p.Ge(v), nil
		}
	case "exists":
		if len(args) != 1 {
			return nil, fmt.Errorf("(exists path): %w", ErrEval)
		}
		p, err := parsePath(args[0])
		if err != nil {
			return nil, err
		}
		return p.Exists(), nil
	case "and", "or":
		kids := make([]query.Expr, 0, len(args))
		for _, a := range args {
			k, err := in.parsePredicate(a)
			if err != nil {
				return nil, err
			}
			kids = append(kids, k)
		}
		if op == "and" {
			return query.And(kids...), nil
		}
		return query.Or(kids...), nil
	case "not":
		if len(args) != 1 {
			return nil, fmt.Errorf("(not pred): %w", ErrEval)
		}
		k, err := in.parsePredicate(args[0])
		if err != nil {
			return nil, err
		}
		return query.Not(k), nil
	case "any", "all":
		if len(args) != 2 {
			return nil, fmt.Errorf("(%s path pred): %w", op, ErrEval)
		}
		p, err := parsePath(args[0])
		if err != nil {
			return nil, err
		}
		sub, err := in.parsePredicate(args[1])
		if err != nil {
			return nil, err
		}
		if op == "any" {
			return p.Any(sub), nil
		}
		return p.All(sub), nil
	case "component-of":
		if len(args) != 1 {
			return nil, fmt.Errorf("(component-of obj): %w", ErrEval)
		}
		id, err := in.objArg(args[0])
		if err != nil {
			return nil, err
		}
		return query.ComponentOf(id), nil
	default:
		return nil, fmt.Errorf("unknown predicate %q: %w", op, ErrEval)
	}
}
