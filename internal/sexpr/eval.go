package sexpr

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/value"
	"repro/internal/version"
)

// ErrEval wraps all evaluation errors.
var ErrEval = errors.New("sexpr: eval error")

// Interp evaluates expressions against a database. Objects created with
// (define name expr) are bound in the environment for later reference.
//
// get and the §3 query messages (components-of, parents-of,
// ancestors-of, roots-of and the §3.2 predicates) answer from the
// committed objects, and inside (begin) from the transaction's view: its
// own writes over the committed objects. A (snapshot begin) session pins
// snap: while set, they answer from the MVCC snapshot — the committed
// state at the begin boundary, read without the engine latch or any §7
// lock — until (snapshot release). Write messages keep writing to the
// database; their effects become visible to queries only after release.
// select and extent always answer from the committed objects.
type Interp struct {
	DB   *db.DB
	env  map[string]value.Value
	snap *core.Snapshot

	// tx is the session's open explicit transaction ((begin) … (commit)),
	// nil when each write runs as its own transaction. See session.go.
	tx *txn.Txn

	// prof is non-nil while a (profile expr) evaluation is in flight:
	// parseQueryOpts threads it into every §3 query the expression
	// issues, so traversal costs land on the profile being built.
	prof *obs.ProfCtx
}

// queries picks the view for a read — get's object, describe and the §3
// queries: the open snapshot, else the open transaction's (its own
// writes over the committed objects), else the committed objects.
func (in *Interp) queries() core.View {
	switch {
	case in.snap != nil:
		return in.snap.View
	case in.tx != nil:
		return in.tx.View()
	}
	return in.DB.Engine().View
}

// books returns the version bookkeeping the session reads: inside
// (begin), as its transaction sees it; else the committed entries.
func (in *Interp) books() version.Books {
	return in.DB.Versions().TxBooks(core.TxnID(in.TxnID()))
}

// write runs one data, copy or version statement: in the session's
// transaction inside (begin), else as a one-statement transaction
// (db.DB.Run), which commits, or aborts on error.
func (in *Interp) write(fn func(t *txn.Txn) error) error {
	if in.tx != nil {
		return fn(in.tx)
	}
	return in.DB.Run(fn)
}

// ErrSchemaInTxn is returned for a schema statement inside (begin): each
// runs as its own transaction, with X on the classes it changes.
var ErrSchemaInTxn = fmt.Errorf("schema statements run outside (begin): %w", ErrEval)

// schema runs one schema statement through the db facade, which runs it
// as its own transaction; inside (begin) it is refused.
func (in *Interp) schema(fn func() error) error {
	if in.tx != nil {
		return ErrSchemaInTxn
	}
	return fn()
}

// ErrSetDefaultInTxn is returned for set-default inside (begin): the pin
// lives in the shared version bookkeeping, which an abort would not roll
// back, so it is set only between transactions.
var ErrSetDefaultInTxn = fmt.Errorf("set-default runs outside (begin): %w", ErrEval)

// NewInterp returns an interpreter over the database.
func NewInterp(d *db.DB) *Interp {
	return &Interp{DB: d, env: make(map[string]value.Value)}
}

// EvalString parses and evaluates a whole program, returning the value of
// the last expression.
func (in *Interp) EvalString(src string) (value.Value, error) {
	nodes, err := ParseAll(src)
	if err != nil {
		return value.Nil, err
	}
	out := value.Nil
	for _, n := range nodes {
		out, err = in.Eval(n)
		if err != nil {
			return value.Nil, err
		}
	}
	return out, nil
}

// Eval evaluates one expression.
func (in *Interp) Eval(n Node) (value.Value, error) {
	switch n.Kind {
	case NInt:
		return value.Int(n.Int()), nil
	case NReal:
		return value.Real(n.Real()), nil
	case NString:
		return value.Str(n.Text), nil
	case NBool:
		return value.Bool(n.Bool()), nil
	case NNil:
		return value.Nil, nil
	case NRef:
		return value.Ref(n.Ref()), nil
	case NQuote:
		return in.quoteValue(n.Kids[0])
	case NSym:
		if v, ok := in.env[n.Text]; ok {
			return v, nil
		}
		return value.Nil, fmt.Errorf("unbound symbol %q: %w", n.Text, ErrEval)
	case NList:
		if len(n.Kids) == 0 {
			return value.Nil, nil
		}
		head := n.Kids[0]
		if head.Kind != NSym {
			return value.Nil, fmt.Errorf("cannot apply %s: %w", head, ErrEval)
		}
		fn, ok := builtins[strings.ToLower(head.Text)]
		if !ok {
			return value.Nil, fmt.Errorf("unknown message %q: %w", head.Text, ErrEval)
		}
		v, err := fn(in, n.Kids[1:])
		return v, in.noteDeadlock(err)
	default:
		return value.Nil, fmt.Errorf("cannot evaluate %s: %w", n, ErrEval)
	}
}

// quoteValue turns a quoted node into a data value (lists become lists,
// symbols become strings).
func (in *Interp) quoteValue(n Node) (value.Value, error) {
	switch n.Kind {
	case NSym:
		return value.Str(n.Text), nil
	case NList:
		elems := make([]value.Value, 0, len(n.Kids))
		for _, k := range n.Kids {
			v, err := in.quoteValue(k)
			if err != nil {
				return value.Nil, err
			}
			elems = append(elems, v)
		}
		return value.ListOwned(elems), nil
	default:
		return in.Eval(n)
	}
}

// builtin is a message implementation.
type builtin func(*Interp, []Node) (value.Value, error)

var builtins map[string]builtin

func init() {
	builtins = map[string]builtin{
		"define":     evalDefine,
		"make-class": evalMakeClass,
		"make":       evalMake,
		"get":        evalGet,
		"set":        evalSet,
		"attach":     evalAttach,
		"detach":     evalDetach,
		"delete":     evalDelete,
		"describe":   evalDescribe,

		"snapshot": evalSnapshot,

		"begin":      evalBegin,
		"commit":     evalCommit,
		"abort":      evalAbort,
		"txn-status": evalTxnStatus,
		"refs":       evalRefs,

		"explain": evalExplain,
		"profile": evalProfile,
		"flight":  evalFlight,

		"components-of": evalComponentsOf,
		"parents-of":    evalParentsOf,
		"ancestors-of":  evalAncestorsOf,
		"roots-of":      evalRootsOf,

		"component-of":           evalRel(core.View.ComponentOf),
		"child-of":               evalRel(core.View.ChildOf),
		"exclusive-component-of": evalRel(core.View.ExclusiveComponentOf),
		"shared-component-of":    evalRel(core.View.SharedComponentOf),

		"compositep":           evalPred(func(c *schema.Catalog, cl string, a []string) (bool, error) { return c.Compositep(cl, a...) }),
		"exclusive-compositep": evalPred(func(c *schema.Catalog, cl string, a []string) (bool, error) { return c.ExclusiveCompositep(cl, a...) }),
		"shared-compositep":    evalPred(func(c *schema.Catalog, cl string, a []string) (bool, error) { return c.SharedCompositep(cl, a...) }),
		"dependent-compositep": evalPred(func(c *schema.Catalog, cl string, a []string) (bool, error) { return c.DependentCompositep(cl, a...) }),

		"drop-attribute":    evalDropAttribute,
		"rename-attribute":  evalRenameAttribute,
		"copy":              evalCopy,
		"add-superclass":    evalAddSuperclass,
		"remove-superclass": evalRemoveSuperclass,
		"drop-class":        evalDropClass,
		"change-attribute":  evalChangeAttribute,
		"make-composite":    evalMakeComposite,
		"make-exclusive":    evalMakeExclusive,

		"make-versionable": evalMakeVersionable,
		"derive":           evalDerive,
		"set-default":      evalSetDefault,
		"default-version":  evalDefaultVersion,
		"resolve":          evalResolve,
		"delete-version":   evalDeleteVersion,
		"versions-of":      evalVersionsOf,

		"grant":        evalGrant,
		"grant-class":  evalGrantClass,
		"grant-as":     evalGrantAs,
		"set-owner":    evalSetOwner,
		"owner-of":     evalOwnerOf,
		"delegate":     evalDelegate,
		"integrity":    evalIntegrity,
		"revoke":       evalRevoke,
		"revoke-class": evalRevokeClass,
		"check":        evalCheck,
		"effective":    evalEffective,

		"classes":      evalClasses,
		"extent":       evalExtent,
		"select":       evalSelect,
		"create-index": evalCreateIndex,
		"drop-index":   evalDropIndex,
	}
}

// ---- argument helpers ----

func (in *Interp) objArg(n Node) (uid.UID, error) {
	v, err := in.Eval(n)
	if err != nil {
		return uid.Nil, err
	}
	r, ok := v.AsRef()
	if !ok {
		return uid.Nil, fmt.Errorf("expected an object, got %s: %w", v, ErrEval)
	}
	return r, nil
}

func symName(n Node) (string, error) {
	switch n.Kind {
	case NSym:
		return n.Text, nil
	case NQuote:
		return symName(n.Kids[0])
	case NString:
		return n.Text, nil
	case NList:
		// (quote X) is equivalent to 'X.
		if len(n.Kids) == 2 && n.Kids[0].IsSym("quote") {
			return symName(n.Kids[1])
		}
		return "", fmt.Errorf("expected a name, got %s: %w", n, ErrEval)
	default:
		return "", fmt.Errorf("expected a name, got %s: %w", n, ErrEval)
	}
}

// nameArgs reads args as exactly n names (see symName); usage is the
// form the error quotes when the count is wrong.
func nameArgs(args []Node, n int, usage string) ([]string, error) {
	if len(args) != n {
		return nil, fmt.Errorf("usage: %s: %w", usage, ErrEval)
	}
	names := make([]string, n)
	for i, a := range args {
		var err error
		if names[i], err = symName(a); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// keywords are the :keyword value pairs of a message's arguments, read
// in place: kw[2i] is a keyword and kw[2i+1] its value.
type keywords []Node

// splitKeywords separates the leading positional args from the :keyword
// value pairs after them. Both are subslices of args.
func splitKeywords(args []Node) (pos []Node, kw keywords, err error) {
	i := 0
	for i < len(args) && args[i].Kind != NKeyword {
		i++
	}
	pos, kw = args[:i], keywords(args[i:])
	for ; i < len(args); i += 2 {
		if args[i].Kind != NKeyword {
			return nil, nil, fmt.Errorf("expected keyword, got %s: %w", args[i], ErrEval)
		}
		if i+1 >= len(args) {
			return nil, nil, fmt.Errorf("keyword :%s lacks a value: %w", args[i].Text, ErrEval)
		}
	}
	return pos, kw, nil
}

// get returns the value of the keyword whose lowered name is name; of a
// keyword given twice, the last value.
func (kw keywords) get(name string) (Node, bool) {
	for i := len(kw) - 2; i >= 0; i -= 2 {
		if lowerIs(kw[i].Text, name) {
			return kw[i+1], true
		}
	}
	return Node{}, false
}

func boolArg(n Node) (bool, error) {
	switch n.Kind {
	case NBool:
		return n.Bool(), nil
	case NNil:
		return false, nil
	default:
		return false, fmt.Errorf("expected true/nil, got %s: %w", n, ErrEval)
	}
}

func refsToValue(ids []uid.UID) value.Value {
	elems := make([]value.Value, len(ids))
	for i, id := range ids {
		elems[i] = value.Ref(id)
	}
	return value.ListOwned(elems)
}

// ---- core messages ----

func evalDefine(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 2 || args[0].Kind != NSym {
		return value.Nil, fmt.Errorf("usage: (define name expr): %w", ErrEval)
	}
	v, err := in.Eval(args[1])
	if err != nil {
		return value.Nil, err
	}
	in.env[args[0].Text] = v
	return v, nil
}

// parseDomain interprets a :domain node: a primitive name, a class name,
// or (set-of X).
func parseDomain(n Node) (schema.Domain, bool, error) {
	if n.Kind == NQuote {
		return parseDomain(n.Kids[0])
	}
	if n.Kind == NList {
		if len(n.Kids) == 2 && n.Kids[0].IsSym("set-of") {
			d, _, err := parseDomain(n.Kids[1])
			return d, true, err
		}
		return schema.Domain{}, false, fmt.Errorf("bad domain %s: %w", n, ErrEval)
	}
	name, err := symName(n)
	if err != nil {
		return schema.Domain{}, false, err
	}
	switch strings.ToLower(name) {
	case "integer", "int":
		return schema.IntDomain, false, nil
	case "real", "float":
		return schema.RealDomain, false, nil
	case "string":
		return schema.StringDomain, false, nil
	case "boolean", "bool":
		return schema.BoolDomain, false, nil
	default:
		return schema.ClassDomain(name), false, nil
	}
}

// parseAttrSpec interprets one attribute spec list:
//
//	(Name :domain D [:composite t] [:exclusive t] [:dependent t]
//	      [:init v] [:document "..."])
//
// Per §2.3, :exclusive and :dependent default to true for composite
// attributes.
func (in *Interp) parseAttrSpec(n Node) (schema.AttrSpec, error) {
	if n.Kind == NQuote {
		return in.parseAttrSpec(n.Kids[0])
	}
	if n.Kind != NList || len(n.Kids) < 1 {
		return schema.AttrSpec{}, fmt.Errorf("bad attribute spec %s: %w", n, ErrEval)
	}
	name, err := symName(n.Kids[0])
	if err != nil {
		return schema.AttrSpec{}, err
	}
	_, kw, err := splitKeywords(n.Kids[1:])
	if err != nil {
		return schema.AttrSpec{}, err
	}
	spec := schema.AttrSpec{Name: name, Exclusive: true, Dependent: true}
	dn, ok := kw.get("domain")
	if !ok {
		return schema.AttrSpec{}, fmt.Errorf("attribute %s lacks :domain: %w", name, ErrEval)
	}
	spec.Domain, spec.SetOf, err = parseDomain(dn)
	if err != nil {
		return schema.AttrSpec{}, err
	}
	if v, ok := kw.get("composite"); ok {
		if spec.Composite, err = boolArg(v); err != nil {
			return schema.AttrSpec{}, err
		}
	}
	if v, ok := kw.get("exclusive"); ok {
		if spec.Exclusive, err = boolArg(v); err != nil {
			return schema.AttrSpec{}, err
		}
	}
	if v, ok := kw.get("dependent"); ok {
		if spec.Dependent, err = boolArg(v); err != nil {
			return schema.AttrSpec{}, err
		}
	}
	if v, ok := kw.get("init"); ok {
		if spec.Initial, err = in.Eval(v); err != nil {
			return schema.AttrSpec{}, err
		}
	}
	if v, ok := kw.get("document"); ok {
		if v.Kind == NString {
			spec.Doc = v.Text
		}
	}
	if !spec.Composite {
		spec.Exclusive = false
		spec.Dependent = false
	}
	return spec, nil
}

func evalMakeClass(in *Interp, args []Node) (value.Value, error) {
	if len(args) < 1 {
		return value.Nil, fmt.Errorf("usage: (make-class 'Name ...): %w", ErrEval)
	}
	name, err := symName(args[0])
	if err != nil {
		return value.Nil, err
	}
	_, kw, err := splitKeywords(args[1:])
	if err != nil {
		return value.Nil, err
	}
	def := schema.ClassDef{Name: name}
	if v, ok := kw.get("superclasses"); ok && v.Kind != NNil {
		ln := v
		if ln.Kind == NQuote {
			ln = ln.Kids[0]
		}
		if ln.Kind == NSym {
			def.Superclasses = []string{ln.Text}
		} else if ln.Kind == NList {
			for _, k := range ln.Kids {
				s, err := symName(k)
				if err != nil {
					return value.Nil, err
				}
				def.Superclasses = append(def.Superclasses, s)
			}
		}
	}
	for _, key := range []string{"attributes", "attribute"} {
		v, ok := kw.get(key)
		if !ok {
			continue
		}
		ln := v
		if ln.Kind == NQuote {
			ln = ln.Kids[0]
		}
		if ln.Kind == NNil {
			continue
		}
		if ln.Kind != NList {
			return value.Nil, fmt.Errorf(":attributes wants a list, got %s: %w", v, ErrEval)
		}
		for _, k := range ln.Kids {
			spec, err := in.parseAttrSpec(k)
			if err != nil {
				return value.Nil, err
			}
			def.Attributes = append(def.Attributes, spec)
		}
	}
	if v, ok := kw.get("versionable"); ok {
		if def.Versionable, err = boolArg(v); err != nil {
			return value.Nil, err
		}
	}
	if v, ok := kw.get("document"); ok && v.Kind == NString {
		def.Doc = v.Text
	}
	if _, err := in.DB.DefineClass(def); err != nil {
		return value.Nil, err
	}
	return value.Str(name), nil
}

func evalMake(in *Interp, args []Node) (value.Value, error) {
	if len(args) < 1 {
		return value.Nil, fmt.Errorf("usage: (make Class ...): %w", ErrEval)
	}
	class, err := symName(args[0])
	if err != nil {
		return value.Nil, err
	}
	_, kw, err := splitKeywords(args[1:])
	if err != nil {
		return value.Nil, err
	}
	var parents []core.ParentSpec
	attrs := make(map[string]value.Value, len(kw)/2)
	for i := 0; i < len(kw); i += 2 {
		key, n := kw[i].Text, kw[i+1]
		if strings.EqualFold(key, "parent") {
			ln := n
			if ln.Kind == NQuote {
				ln = ln.Kids[0]
			}
			if ln.Kind != NList {
				return value.Nil, fmt.Errorf(":parent wants ((obj attr) ...): %w", ErrEval)
			}
			// Accept both ((p a) (p a)) and a single (p a).
			pairs := ln.Kids
			if len(ln.Kids) == 2 && ln.Kids[0].Kind != NList {
				pairs = []Node{ln}
			}
			for _, pr := range pairs {
				if pr.Kind != NList || len(pr.Kids) != 2 {
					return value.Nil, fmt.Errorf("bad :parent pair %s: %w", pr, ErrEval)
				}
				p, err := in.objArg(pr.Kids[0])
				if err != nil {
					return value.Nil, err
				}
				a, err := symName(pr.Kids[1])
				if err != nil {
					return value.Nil, err
				}
				parents = append(parents, core.ParentSpec{Parent: p, Attr: a})
			}
			continue
		}
		v, err := in.Eval(n)
		if err != nil {
			return value.Nil, err
		}
		attrs[key] = v
	}
	var o *object.Object
	err = in.write(func(t *txn.Txn) (err error) {
		o, err = t.New(class, attrs, parents...)
		return err
	})
	if err != nil {
		return value.Nil, err
	}
	return value.Ref(o.UID()), nil
}

func evalGet(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 2 {
		return value.Nil, fmt.Errorf("usage: (get obj attr): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	attr, err := symName(args[1])
	if err != nil {
		return value.Nil, err
	}
	var o *object.Object
	if in.tx != nil && in.snap == nil {
		o, err = in.tx.ReadObject(id) // admitted at the unit roots (S)
	} else {
		o, err = in.queries().Get(id)
	}
	if err != nil {
		return value.Nil, err
	}
	return o.Get(attr), nil
}

func evalSet(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 3 {
		return value.Nil, fmt.Errorf("usage: (set obj attr value): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	attr, err := symName(args[1])
	if err != nil {
		return value.Nil, err
	}
	v, err := in.Eval(args[2])
	if err != nil {
		return value.Nil, err
	}
	if err := in.write(func(t *txn.Txn) error { return t.WriteAttr(id, attr, v) }); err != nil {
		return value.Nil, err
	}
	return v, nil
}

func evalAttach(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 3 {
		return value.Nil, fmt.Errorf("usage: (attach parent attr child): %w", ErrEval)
	}
	p, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	attr, err := symName(args[1])
	if err != nil {
		return value.Nil, err
	}
	c, err := in.objArg(args[2])
	if err != nil {
		return value.Nil, err
	}
	if err := in.write(func(t *txn.Txn) error { return t.Attach(p, attr, c) }); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalDetach(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 3 {
		return value.Nil, fmt.Errorf("usage: (detach parent attr child): %w", ErrEval)
	}
	p, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	attr, err := symName(args[1])
	if err != nil {
		return value.Nil, err
	}
	c, err := in.objArg(args[2])
	if err != nil {
		return value.Nil, err
	}
	if err := in.write(func(t *txn.Txn) error { return t.Detach(p, attr, c) }); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalDelete(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (delete obj): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	var deleted []uid.UID
	err = in.write(func(t *txn.Txn) (err error) {
		deleted, err = t.Delete(id)
		return err
	})
	if err != nil {
		return value.Nil, err
	}
	return refsToValue(deleted), nil
}

func evalDescribe(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (describe obj): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	s, err := in.queries().Describe(id)
	if err != nil {
		return value.Nil, err
	}
	return value.Str(s), nil
}

// evalSnapshot implements (snapshot begin|release|status): an explicit
// read-only MVCC snapshot session for the shell. begin pins the current
// commit boundary and returns its sequence number (re-begin releases the
// previous one); release unpins it and returns to the current reads; status
// returns the pinned sequence, or nil when no snapshot is active.
func evalSnapshot(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (snapshot begin|release|status): %w", ErrEval)
	}
	verb, err := symName(args[0])
	if err != nil {
		return value.Nil, err
	}
	switch strings.ToLower(verb) {
	case "begin":
		if in.snap != nil {
			in.snap.Release()
		}
		in.snap = in.DB.BeginSnapshot()
		return value.Int(int64(in.snap.Seq())), nil
	case "release":
		if in.snap == nil {
			return value.Bool(false), nil
		}
		in.snap.Release()
		in.snap = nil
		return value.Bool(true), nil
	case "status":
		if in.snap == nil {
			return value.Nil, nil
		}
		return value.Int(int64(in.snap.Seq())), nil
	default:
		return value.Nil, fmt.Errorf("unknown snapshot verb %q (want begin/release/status): %w", verb, ErrEval)
	}
}

// parseQueryOpts reads the optional arguments of §3.1's messages. When
// a (profile ...) evaluation is in flight its collector rides along in
// q.Prof, so the engine attributes the query's costs to it.
func (in *Interp) parseQueryOpts(args []Node) (core.QueryOpts, error) {
	q := core.QueryOpts{Prof: in.prof}
	_, kw, err := splitKeywords(args)
	if err != nil {
		return q, err
	}
	if v, ok := kw.get("classes"); ok {
		ln := v
		if ln.Kind == NQuote {
			ln = ln.Kids[0]
		}
		if ln.Kind == NSym {
			q.Classes = []string{ln.Text}
		} else if ln.Kind == NList {
			for _, k := range ln.Kids {
				s, err := symName(k)
				if err != nil {
					return q, err
				}
				q.Classes = append(q.Classes, s)
			}
		}
	}
	if v, ok := kw.get("exclusive"); ok {
		if q.Exclusive, err = boolArg(v); err != nil {
			return q, err
		}
	}
	if v, ok := kw.get("shared"); ok {
		if q.Shared, err = boolArg(v); err != nil {
			return q, err
		}
	}
	if v, ok := kw.get("level"); ok && v.Kind == NInt {
		q.Level = int(v.Int())
	}
	return q, nil
}

func evalComponentsOf(in *Interp, args []Node) (value.Value, error) {
	if len(args) < 1 {
		return value.Nil, fmt.Errorf("usage: (components-of obj ...): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	q, err := in.parseQueryOpts(args[1:])
	if err != nil {
		return value.Nil, err
	}
	ids, err := in.queries().ComponentsOf(id, q)
	if err != nil {
		return value.Nil, err
	}
	return refsToValue(ids), nil
}

func evalParentsOf(in *Interp, args []Node) (value.Value, error) {
	if len(args) < 1 {
		return value.Nil, fmt.Errorf("usage: (parents-of obj ...): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	q, err := in.parseQueryOpts(args[1:])
	if err != nil {
		return value.Nil, err
	}
	ids, err := in.queries().ParentsOf(id, q)
	if err != nil {
		return value.Nil, err
	}
	return refsToValue(ids), nil
}

func evalAncestorsOf(in *Interp, args []Node) (value.Value, error) {
	if len(args) < 1 {
		return value.Nil, fmt.Errorf("usage: (ancestors-of obj ...): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	q, err := in.parseQueryOpts(args[1:])
	if err != nil {
		return value.Nil, err
	}
	ids, err := in.queries().AncestorsOf(id, q)
	if err != nil {
		return value.Nil, err
	}
	return refsToValue(ids), nil
}

func evalRootsOf(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (roots-of obj): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	ids, err := in.queries().RootsOf(id)
	if err != nil {
		return value.Nil, err
	}
	return refsToValue(ids), nil
}

func evalRel(rel func(core.View, uid.UID, uid.UID) (bool, error)) builtin {
	return func(in *Interp, args []Node) (value.Value, error) {
		if len(args) != 2 {
			return value.Nil, fmt.Errorf("expected two objects: %w", ErrEval)
		}
		a, err := in.objArg(args[0])
		if err != nil {
			return value.Nil, err
		}
		b, err := in.objArg(args[1])
		if err != nil {
			return value.Nil, err
		}
		ok, err := rel(in.queries(), a, b)
		if err != nil {
			return value.Nil, err
		}
		return value.Bool(ok), nil
	}
}

func evalPred(pred func(*schema.Catalog, string, []string) (bool, error)) builtin {
	return func(in *Interp, args []Node) (value.Value, error) {
		if len(args) < 1 || len(args) > 2 {
			return value.Nil, fmt.Errorf("usage: (compositep Class [Attr]): %w", ErrEval)
		}
		class, err := symName(args[0])
		if err != nil {
			return value.Nil, err
		}
		var attr []string
		if len(args) == 2 {
			a, err := symName(args[1])
			if err != nil {
				return value.Nil, err
			}
			attr = []string{a}
		}
		ok, err := pred(in.DB.Catalog(), class, attr)
		if err != nil {
			return value.Nil, err
		}
		return value.Bool(ok), nil
	}
}

func evalCopy(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (copy obj): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	var cp uid.UID
	err = in.write(func(t *txn.Txn) (err error) {
		cp, err = t.Copy(id)
		return err
	})
	if err != nil {
		return value.Nil, err
	}
	return value.Ref(cp), nil
}

func evalRenameAttribute(in *Interp, args []Node) (value.Value, error) {
	n, err := nameArgs(args, 3, "(rename-attribute Class Old New)")
	if err != nil {
		return value.Nil, err
	}
	if err := in.schema(func() error { return in.DB.RenameAttribute(n[0], n[1], n[2]) }); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

// ---- schema evolution ----

func evalDropAttribute(in *Interp, args []Node) (value.Value, error) {
	n, err := nameArgs(args, 2, "(drop-attribute Class Attr)")
	if err != nil {
		return value.Nil, err
	}
	var deleted []uid.UID
	err = in.schema(func() (err error) {
		deleted, err = in.DB.DropAttribute(n[0], n[1])
		return err
	})
	if err != nil {
		return value.Nil, err
	}
	return refsToValue(deleted), nil
}

func evalAddSuperclass(in *Interp, args []Node) (value.Value, error) {
	n, err := nameArgs(args, 2, "(add-superclass Class Super)")
	if err != nil {
		return value.Nil, err
	}
	if err := in.schema(func() error { return in.DB.AddSuperclass(n[0], n[1]) }); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalRemoveSuperclass(in *Interp, args []Node) (value.Value, error) {
	n, err := nameArgs(args, 2, "(remove-superclass Class Super)")
	if err != nil {
		return value.Nil, err
	}
	var deleted []uid.UID
	err = in.schema(func() (err error) {
		deleted, err = in.DB.RemoveSuperclass(n[0], n[1])
		return err
	})
	if err != nil {
		return value.Nil, err
	}
	return refsToValue(deleted), nil
}

func evalDropClass(in *Interp, args []Node) (value.Value, error) {
	n, err := nameArgs(args, 1, "(drop-class Class)")
	if err != nil {
		return value.Nil, err
	}
	var deleted []uid.UID
	err = in.schema(func() (err error) {
		deleted, err = in.DB.DropClass(n[0])
		return err
	})
	if err != nil {
		return value.Nil, err
	}
	return refsToValue(deleted), nil
}

func evalChangeAttribute(in *Interp, args []Node) (value.Value, error) {
	pos, kw, err := splitKeywords(args)
	if err != nil {
		return value.Nil, err
	}
	n, err := nameArgs(pos, 3, "(change-attribute Class Attr I1|I2|I3|I4 [:deferred true])")
	if err != nil {
		return value.Nil, err
	}
	var kind schema.ChangeKind
	switch strings.ToUpper(n[2]) {
	case "I1":
		kind = schema.ChangeDropComposite
	case "I2":
		kind = schema.ChangeToShared
	case "I3":
		kind = schema.ChangeToIndependent
	case "I4":
		kind = schema.ChangeToDependent
	default:
		return value.Nil, fmt.Errorf("unknown change %q (want I1..I4): %w", n[2], ErrEval)
	}
	deferred := false
	if v, ok := kw.get("deferred"); ok {
		deferred, _ = boolArg(v)
	}
	if err := in.schema(func() error { return in.DB.ChangeAttributeType(n[0], n[1], kind, deferred) }); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalMakeComposite(in *Interp, args []Node) (value.Value, error) {
	pos, kw, err := splitKeywords(args)
	if err != nil {
		return value.Nil, err
	}
	n, err := nameArgs(pos, 2, "(make-composite Class Attr [:exclusive t] [:dependent t])")
	if err != nil {
		return value.Nil, err
	}
	exclusive, dependent := true, true
	if v, ok := kw.get("exclusive"); ok {
		exclusive, _ = boolArg(v)
	}
	if v, ok := kw.get("dependent"); ok {
		dependent, _ = boolArg(v)
	}
	if err := in.schema(func() error { return in.DB.MakeComposite(n[0], n[1], exclusive, dependent) }); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalMakeExclusive(in *Interp, args []Node) (value.Value, error) {
	n, err := nameArgs(args, 2, "(make-exclusive Class Attr)")
	if err != nil {
		return value.Nil, err
	}
	if err := in.schema(func() error { return in.DB.MakeExclusive(n[0], n[1]) }); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

// ---- versions ----

func evalMakeVersionable(in *Interp, args []Node) (value.Value, error) {
	if len(args) < 1 {
		return value.Nil, fmt.Errorf("usage: (make-versionable Class :Attr v ...): %w", ErrEval)
	}
	class, err := symName(args[0])
	if err != nil {
		return value.Nil, err
	}
	_, kw, err := splitKeywords(args[1:])
	if err != nil {
		return value.Nil, err
	}
	attrs := make(map[string]value.Value, len(kw)/2)
	for i := 0; i < len(kw); i += 2 {
		v, err := in.Eval(kw[i+1])
		if err != nil {
			return value.Nil, err
		}
		attrs[kw[i].Text] = v
	}
	var g, v0 uid.UID
	err = in.write(func(t *txn.Txn) (err error) {
		g, v0, err = in.DB.Versions().CreateVersionable(t, class, attrs)
		return err
	})
	if err != nil {
		return value.Nil, err
	}
	return value.ListOf(value.Ref(g), value.Ref(v0)), nil
}

func evalDerive(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (derive version): %w", ErrEval)
	}
	v, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	var nv uid.UID
	err = in.write(func(t *txn.Txn) (err error) {
		nv, err = in.DB.Versions().Derive(t, v)
		return err
	})
	if err != nil {
		return value.Nil, err
	}
	return value.Ref(nv), nil
}

func evalSetDefault(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 2 {
		return value.Nil, fmt.Errorf("usage: (set-default generic version): %w", ErrEval)
	}
	if in.tx != nil {
		return value.Nil, ErrSetDefaultInTxn
	}
	g, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	v := uid.Nil
	if args[1].Kind != NNil {
		if v, err = in.objArg(args[1]); err != nil {
			return value.Nil, err
		}
	}
	if err := in.books().SetDefault(g, v); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalDefaultVersion(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (default-version generic): %w", ErrEval)
	}
	g, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	v, err := in.books().DefaultVersion(g)
	if err != nil {
		return value.Nil, err
	}
	return value.Ref(v), nil
}

func evalResolve(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (resolve obj): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	r, err := in.books().Resolve(id)
	if err != nil {
		return value.Nil, err
	}
	return value.Ref(r), nil
}

func evalDeleteVersion(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (delete-version version): %w", ErrEval)
	}
	v, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	if err := in.write(func(t *txn.Txn) error { return in.DB.Versions().DeleteVersion(t, v) }); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalVersionsOf(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (versions-of generic): %w", ErrEval)
	}
	g, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	info, err := in.books().Info(g)
	if err != nil {
		return value.Nil, err
	}
	return refsToValue(info.Versions), nil
}

// ---- authorization ----

// parseAuth reads the paper's notation: sR, sW, s¬R (or ASCII s-R/s!R),
// wW, ...
func parseAuth(n Node) (authz.Auth, error) {
	name, err := symName(n)
	if err != nil {
		return authz.Auth{}, err
	}
	s := name
	var a authz.Auth
	switch {
	case strings.HasPrefix(s, "s"):
		a.Strength = authz.Strong
		s = s[1:]
	case strings.HasPrefix(s, "w"):
		a.Strength = authz.Weak
		s = s[1:]
	default:
		return authz.Auth{}, fmt.Errorf("bad authorization %q (want s/w prefix): %w", name, ErrEval)
	}
	a.Positive = true
	for _, neg := range []string{"¬", "-", "!"} {
		if strings.HasPrefix(s, neg) {
			a.Positive = false
			s = strings.TrimPrefix(s, neg)
			break
		}
	}
	switch strings.ToUpper(s) {
	case "R":
		a.Right = authz.Read
	case "W":
		a.Right = authz.Write
	default:
		return authz.Auth{}, fmt.Errorf("bad authorization right %q: %w", name, ErrEval)
	}
	return a, nil
}

func evalGrant(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 3 {
		return value.Nil, fmt.Errorf("usage: (grant subject obj auth): %w", ErrEval)
	}
	subj, err := stringArg(in, args[0])
	if err != nil {
		return value.Nil, err
	}
	id, err := in.objArg(args[1])
	if err != nil {
		return value.Nil, err
	}
	a, err := parseAuth(args[2])
	if err != nil {
		return value.Nil, err
	}
	if err := in.DB.Authz().GrantObject(subj, id, a); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalGrantClass(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 3 {
		return value.Nil, fmt.Errorf("usage: (grant-class subject Class auth): %w", ErrEval)
	}
	subj, err := stringArg(in, args[0])
	if err != nil {
		return value.Nil, err
	}
	class, err := symName(args[1])
	if err != nil {
		return value.Nil, err
	}
	a, err := parseAuth(args[2])
	if err != nil {
		return value.Nil, err
	}
	if err := in.DB.Authz().GrantClass(subj, class, a); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalRevoke(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 2 {
		return value.Nil, fmt.Errorf("usage: (revoke subject obj): %w", ErrEval)
	}
	subj, err := stringArg(in, args[0])
	if err != nil {
		return value.Nil, err
	}
	id, err := in.objArg(args[1])
	if err != nil {
		return value.Nil, err
	}
	in.DB.Authz().RevokeObject(subj, id)
	return value.Bool(true), nil
}

func evalRevokeClass(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 2 {
		return value.Nil, fmt.Errorf("usage: (revoke-class subject Class): %w", ErrEval)
	}
	subj, err := stringArg(in, args[0])
	if err != nil {
		return value.Nil, err
	}
	class, err := symName(args[1])
	if err != nil {
		return value.Nil, err
	}
	in.DB.Authz().RevokeClass(subj, class)
	return value.Bool(true), nil
}

func evalCheck(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 3 {
		return value.Nil, fmt.Errorf("usage: (check subject obj R|W): %w", ErrEval)
	}
	subj, err := stringArg(in, args[0])
	if err != nil {
		return value.Nil, err
	}
	id, err := in.objArg(args[1])
	if err != nil {
		return value.Nil, err
	}
	rn, err := symName(args[2])
	if err != nil {
		return value.Nil, err
	}
	var right authz.Right
	switch strings.ToUpper(rn) {
	case "R", "READ":
		right = authz.Read
	case "W", "WRITE":
		right = authz.Write
	default:
		return value.Nil, fmt.Errorf("bad right %q: %w", rn, ErrEval)
	}
	ok, err := in.DB.Authz().Check(subj, id, right)
	if err != nil {
		return value.Nil, err
	}
	return value.Bool(ok), nil
}

func evalEffective(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 2 {
		return value.Nil, fmt.Errorf("usage: (effective subject obj): %w", ErrEval)
	}
	subj, err := stringArg(in, args[0])
	if err != nil {
		return value.Nil, err
	}
	id, err := in.objArg(args[1])
	if err != nil {
		return value.Nil, err
	}
	res, err := in.DB.Authz().Effective(subj, id)
	if err != nil {
		return value.Nil, err
	}
	return value.Str(res.String()), nil
}

func stringArg(in *Interp, n Node) (string, error) {
	v, err := in.Eval(n)
	if err != nil {
		return "", err
	}
	if s, ok := v.AsString(); ok {
		return s, nil
	}
	return "", fmt.Errorf("expected a string, got %s: %w", v, ErrEval)
}

func evalSetOwner(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 2 {
		return value.Nil, fmt.Errorf("usage: (set-owner obj subject): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	owner, err := stringArg(in, args[1])
	if err != nil {
		return value.Nil, err
	}
	in.DB.Authz().SetObjectOwner(id, owner)
	return value.Bool(true), nil
}

func evalOwnerOf(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 1 {
		return value.Nil, fmt.Errorf("usage: (owner-of obj): %w", ErrEval)
	}
	id, err := in.objArg(args[0])
	if err != nil {
		return value.Nil, err
	}
	return value.Str(in.DB.Authz().ObjectOwner(id)), nil
}

func evalDelegate(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 3 {
		return value.Nil, fmt.Errorf("usage: (delegate granter subject obj): %w", ErrEval)
	}
	granter, err := stringArg(in, args[0])
	if err != nil {
		return value.Nil, err
	}
	subject, err := stringArg(in, args[1])
	if err != nil {
		return value.Nil, err
	}
	id, err := in.objArg(args[2])
	if err != nil {
		return value.Nil, err
	}
	if err := in.DB.Authz().DelegateGrant(granter, subject, id); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalGrantAs(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 4 {
		return value.Nil, fmt.Errorf("usage: (grant-as granter subject obj auth): %w", ErrEval)
	}
	granter, err := stringArg(in, args[0])
	if err != nil {
		return value.Nil, err
	}
	subject, err := stringArg(in, args[1])
	if err != nil {
		return value.Nil, err
	}
	id, err := in.objArg(args[2])
	if err != nil {
		return value.Nil, err
	}
	a, err := parseAuth(args[3])
	if err != nil {
		return value.Nil, err
	}
	if err := in.DB.Authz().GrantObjectAs(granter, subject, id, a); err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalIntegrity(in *Interp, args []Node) (value.Value, error) {
	violations := in.DB.Engine().Integrity()
	elems := make([]value.Value, len(violations))
	for i, v := range violations {
		elems[i] = value.Str(v.String())
	}
	return value.ListOwned(elems), nil
}

// ---- introspection ----

func evalClasses(in *Interp, args []Node) (value.Value, error) {
	names := in.DB.Catalog().ClassNames()
	sort.Strings(names)
	elems := make([]value.Value, len(names))
	for i, n := range names {
		elems[i] = value.Str(n)
	}
	return value.ListOwned(elems), nil
}

func evalExtent(in *Interp, args []Node) (value.Value, error) {
	if len(args) < 1 {
		return value.Nil, fmt.Errorf("usage: (extent Class [:deep true]): %w", ErrEval)
	}
	class, err := symName(args[0])
	if err != nil {
		return value.Nil, err
	}
	deep := false
	if _, kw, err := splitKeywords(args[1:]); err == nil {
		if v, ok := kw.get("deep"); ok {
			deep, _ = boolArg(v)
		}
	}
	ids, err := in.DB.Engine().Extent(class, deep)
	if err != nil {
		return value.Nil, err
	}
	return refsToValue(ids), nil
}
