package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sexpr"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/value"
)

// The traced run. The same seeded op stream is replayed in-process,
// single-threaded, down a ladder of public entry points, one layer lower
// per rung:
//
//	wire   client.Do against server.New over loopback TCP (spans recorded)
//	bare   the same, timing only — the untraced twin for trace.overhead_pct
//	sexpr  ParseAll + Interp.Eval + rendering the reply
//	txn    db.Begin / Txn.* / Commit and the db facade's queries
//	core   db.Engine() on an in-memory database: no locks, no WAL
//
// Each rung owns a database, a model and a generator, all seeded alike,
// so op i is the same operation on every rung and rung k minus rung k+1,
// taken per op, is the self time of the layer between them. The rungs
// advance in lock step, a block of ops at a time, so slow drift of the
// machine lands on all of them. Every call into a layer is a span
// recorded from here, around the call; spans inside the program are a
// later change.

// span is one timed call. Parent is the index of the enclosing span in
// the trace, -1 for a request's root span.
type span struct {
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) open(req int, layer, name string, parent int) int {
	t.spans = append(t.spans, span{Req: req, Layer: layer, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// durations lists, in request order, how long each span named layer.name took.
func (t *tracer) durations(layer, name string) []int64 {
	var out []int64
	for i := range t.spans {
		if sp := &t.spans[i]; sp.Layer == layer && sp.Name == name {
			out = append(out, sp.End-sp.Start)
		}
	}
	return out
}

// rung is one level of the ladder.
type rung struct {
	name string
	d    *db.DB
	dir  string // "" for the in-memory rung
	m    *model
	g    *gen
	exec func(o *op, req int) ([]uid.UID, error)
	lat  []int64 // per measured op, ns

	srv *server.Server
	cn  *conn
	in  *sexpr.Interp

	samples [][2]string // wire rung: a few (program, reply) pairs for the frame driver
}

func (r *rung) close() {
	if r.cn != nil {
		_ = r.cn.c.Close()
	}
	if r.srv != nil {
		_ = r.srv.Close()
	}
	if r.d != nil {
		_ = r.d.Abandon() // scratch database: nothing to keep
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}

type ladder struct {
	s     *spec
	tr    *tracer
	rungs []*rung // wire, bare, sexpr, txn, core
}

const (
	rWire = iota
	rBare
	rSexpr
	rTxn
	rCore
)

func newLadder(s *spec, outDir string, seed int64) (l *ladder, err error) {
	ls := *s
	ls.clients = 1
	if ls.ladderUnits > 0 {
		ls.units = ls.ladderUnits
	}
	l = &ladder{s: &ls, tr: &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	for i, name := range []string{"wire", "bare", "sexpr", "txn", "core"} {
		r := &rung{name: name, m: newModel(&ls)}
		l.rungs = append(l.rungs, r)
		opts := db.Options{}
		if i != rCore {
			if r.dir, err = os.MkdirTemp(outDir, "ladder-"+name+"-"); err != nil {
				return l, err
			}
			opts = db.Options{Dir: r.dir, SyncWAL: false}
		}
		if r.d, err = db.Open(opts); err != nil {
			return l, fmt.Errorf("ladder %s: open: %w", name, err)
		}
		r.g = newGen(&ls, r.m, seed, 0)
		switch i {
		case rWire, rBare:
			r.srv = server.New(r.d, server.Config{Addr: "127.0.0.1:0"})
			if err = r.srv.Start(); err != nil {
				return l, err
			}
			c, derr := client.Dial(r.srv.Addr())
			if derr != nil {
				return l, derr
			}
			r.cn = &conn{c: c}
			r.exec = l.execWire(r, i == rWire)
		case rSexpr:
			r.in = sexpr.NewInterp(r.d)
			r.exec = l.execSexpr(r)
		case rTxn:
			r.exec = l.execTxn(r)
		case rCore:
			r.exec = l.execCore(r)
		}
		// Schema goes in through the interpreter on every rung: it is
		// set-up, not a measured path.
		in := sexpr.NewInterp(r.d)
		for _, p := range schemaPrograms(ls.shared) {
			if _, err = in.EvalString(p); err != nil {
				return l, fmt.Errorf("ladder %s: schema: %w", name, err)
			}
		}
		for _, phase := range r.g.loadPhases(ls.units) {
			for _, o := range phase {
				r.g.bind(o)
				res, xerr := r.exec(o, -1)
				if xerr == nil {
					xerr = r.g.done(o, res)
				}
				if xerr != nil {
					return l, fmt.Errorf("ladder %s: preload %s: %w", name, o.kind, xerr)
				}
			}
		}
	}
	return l, nil
}

func (l *ladder) close() {
	for _, r := range l.rungs {
		r.close()
	}
}

// ladderBlock is large enough that the collection before each block is a
// small share of the block.
const ladderBlock = 128

// run advances every rung by blocks of ops until the deadline, at least
// one round. Every reply is checked against the rung's own model: there
// is no concurrency here, so every closure is exact.
func (l *ladder) run(deadline time.Time) error {
	req := 0
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, r := range l.rungs {
			// Collect between blocks, or a rung would pay, as GC assist,
			// for the garbage of the rung before it.
			runtime.GC()
			for i := 0; i < ladderBlock; i++ {
				o := r.g.next()
				start := time.Now()
				res, err := r.exec(o, req+i)
				d := time.Since(start)
				if err == nil {
					err = r.g.done(o, res)
				}
				if err == nil {
					err = r.m.verify(o, res, true)
				}
				if err != nil {
					return fmt.Errorf("ladder %s: op %d %s: %w", r.name, req+i, o.kind, err)
				}
				r.lat = append(r.lat, int64(d))
			}
		}
		req += ladderBlock
	}
	return nil
}

// timed runs fn as a span under parent. req < 0 is the untimed preload.
func (l *ladder) timed(req int, layer, name string, parent int, fn func() error) error {
	if req < 0 {
		return fn()
	}
	i := l.tr.open(req, layer, name, parent)
	err := fn()
	l.tr.close(i)
	return err
}

func (l *ladder) execWire(r *rung, traced bool) func(*op, int) ([]uid.UID, error) {
	return func(o *op, req int) ([]uid.UID, error) {
		var reply string
		do := func() (err error) { reply, err = r.cn.do(o.prog); return }
		var err error
		if traced {
			err = l.timed(req, "server", "do", -1, do)
		} else {
			err = do()
		}
		if err != nil {
			return nil, err
		}
		if traced && req >= 0 && len(r.samples) < 256 {
			r.samples = append(r.samples, [2]string{o.prog, reply})
		}
		return parseRefs(reply), nil
	}
}

func (l *ladder) execSexpr(r *rung) func(*op, int) ([]uid.UID, error) {
	return func(o *op, req int) ([]uid.UID, error) {
		root := -1
		if req >= 0 {
			root = l.tr.open(req, "sexpr", "request", -1)
			defer l.tr.close(root)
		}
		var nodes []sexpr.Node
		err := l.timed(req, "sexpr", "parse", root, func() (err error) {
			nodes, err = sexpr.ParseAll(o.prog)
			return
		})
		if err != nil {
			return nil, err
		}
		var reply string
		err = l.timed(req, "sexpr", "eval", root, func() error {
			out := value.Nil
			for _, n := range nodes {
				v, err := r.in.Eval(n)
				if err != nil {
					return err
				}
				out = v
			}
			reply = out.String()
			return nil
		})
		if err != nil {
			_ = r.in.Close() // abort whatever the failed program left open
			return nil, err
		}
		return parseRefs(reply), nil
	}
}

// maker creates one object; the txn and core rungs each supply one.
type maker func(class string, attrs map[string]value.Value, parents ...core.ParentSpec) (uid.UID, error)

// build is the typed twin of op.renderBuild: the same objects in the
// same order, returning what the program's final (refs ...) would.
func build(mk maker, o *op) ([]uid.UID, error) {
	var out []uid.UID
	parent := o.doc
	if o.newDoc {
		d, err := mk("Document", map[string]value.Value{"Title": value.Str(o.title)})
		if err != nil {
			return nil, err
		}
		parent = d
		out = append(out, d)
	}
	n := 0
	for s := 0; s < o.sections; s++ {
		sec, err := mk("Section", map[string]value.Value{"Heading": value.Str(heading(s))},
			core.ParentSpec{Parent: parent, Attr: "Sections"})
		if err != nil {
			return nil, err
		}
		if o.wantAll {
			out = append(out, sec)
		}
		for p := 0; p < o.paras; p++ {
			para, err := mk("Paragraph", map[string]value.Value{"Text": value.Str(textFor(o.seed, n))},
				core.ParentSpec{Parent: sec, Attr: "Content"})
			if err != nil {
				return nil, err
			}
			if o.wantAll {
				out = append(out, para)
			}
			n++
		}
	}
	return out, nil
}

func titleIs(title string) query.Expr { return query.Attr("Title").Eq(value.Str(title)) }

func (l *ladder) execTxn(r *rung) func(*op, int) ([]uid.UID, error) {
	d := r.d
	return func(o *op, req int) (res []uid.UID, err error) {
		root := -1
		if req >= 0 {
			root = l.tr.open(req, "txn", "request", -1)
			defer l.tr.close(root)
		}
		// inTxn brackets body with Begin and Commit, aborting on failure.
		inTxn := func(name string, body func(t *txn.Txn) error) error {
			var t *txn.Txn
			_ = l.timed(req, "txn", "begin", root, func() error { t = d.Begin(); return nil })
			if err := l.timed(req, "txn", name, root, func() error { return body(t) }); err != nil {
				_ = t.Abort() // the body's error is the one to report
				return err
			}
			return l.timed(req, "txn", "commit", root, t.Commit)
		}
		switch o.kind {
		case opLoadUnit, opMakeFloater, opLoadBulk, opMakeSection, opBulk:
			err = inTxn("build", func(t *txn.Txn) (err error) {
				res, err = build(func(class string, attrs map[string]value.Value, parents ...core.ParentSpec) (uid.UID, error) {
					obj, err := t.New(class, attrs, parents...)
					if err != nil {
						return uid.Nil, err
					}
					return obj.UID(), nil
				}, o)
				return err
			})
			if err == nil && o.kind == opBulk {
				err = inTxn("delete", func(t *txn.Txn) error { _, err := t.Delete(o.old); return err })
			}
		case opLink:
			err = inTxn("attach", func(t *txn.Txn) error {
				for _, s := range o.links {
					if err := t.Attach(o.doc, "Sections", s); err != nil {
						return err
					}
				}
				return nil
			})
		case opComponents:
			err = l.timed(req, "core", "components-of", root, func() (err error) {
				res, err = d.ComponentsOf(o.doc, core.QueryOpts{Level: o.level})
				return
			})
		case opAncestors:
			err = l.timed(req, "core", "ancestors-of", root, func() (err error) {
				res, err = d.AncestorsOf(o.obj, core.QueryOpts{})
				return
			})
		case opRoots:
			err = l.timed(req, "core", "roots-of", root, func() (err error) {
				res, err = d.RootsOf(o.obj)
				return
			})
		case opSelect:
			err = l.timed(req, "query", "select", root, func() (err error) {
				res, err = query.SelectIndexed(d.Engine(), d.Indexes(), "Document", false, titleIs(o.title))
				return
			})
		case opSet:
			err = inTxn("set", func(t *txn.Txn) error { return t.WriteAttr(o.obj, "Text", value.Str(o.text)) })
		case opDeleteSection:
			err = inTxn("delete", func(t *txn.Txn) error { _, err := t.Delete(o.sec.id); return err })
		case opTxnRead:
			err = inTxn("read", func(t *txn.Txn) (err error) {
				if _, err = t.ReadObject(o.doc); err != nil {
					return err
				}
				res, err = d.ComponentsOf(o.doc, core.QueryOpts{})
				return err
			})
		case opSnapRead:
			err = l.timed(req, "core", "snapshot-read", root, func() (err error) {
				s := d.BeginSnapshot()
				defer s.Release()
				res, err = s.ComponentsOf(o.doc, core.QueryOpts{})
				return
			})
		case opAttach:
			err = inTxn("attach", func(t *txn.Txn) error { return t.Attach(o.doc, "Sections", o.fl.sec.id) })
		case opDetach:
			err = inTxn("detach", func(t *txn.Txn) error { return t.Detach(o.doc, "Sections", o.fl.sec.id) })
		}
		return res, err
	}
}

func (l *ladder) execCore(r *rung) func(*op, int) ([]uid.UID, error) {
	e := r.d.Engine()
	ix := r.d.Indexes()
	return func(o *op, req int) (res []uid.UID, err error) {
		err = l.timed(req, "core", "op", -1, func() (err error) {
			switch o.kind {
			case opLoadUnit, opMakeFloater, opLoadBulk, opMakeSection, opBulk:
				res, err = build(func(class string, attrs map[string]value.Value, parents ...core.ParentSpec) (uid.UID, error) {
					obj, err := e.New(class, attrs, parents...)
					if err != nil {
						return uid.Nil, err
					}
					return obj.UID(), nil
				}, o)
				if err == nil && o.kind == opBulk {
					_, err = e.Delete(o.old)
				}
			case opLink:
				for _, s := range o.links {
					if err = e.Attach(o.doc, "Sections", s); err != nil {
						return err
					}
				}
			case opComponents:
				res, err = e.ComponentsOf(o.doc, core.QueryOpts{Level: o.level})
			case opAncestors:
				res, err = e.AncestorsOf(o.obj, core.QueryOpts{})
			case opRoots:
				res, err = e.RootsOf(o.obj)
			case opSelect:
				res, err = query.SelectIndexed(e, ix, "Document", false, titleIs(o.title))
			case opSet:
				err = e.Set(o.obj, "Text", value.Str(o.text))
			case opDeleteSection:
				_, err = e.Delete(o.sec.id)
			case opTxnRead:
				if _, err = e.Get(o.doc); err == nil {
					res, err = e.ComponentsOf(o.doc, core.QueryOpts{})
				}
			case opSnapRead:
				s := e.BeginSnapshot()
				res, err = s.ComponentsOf(o.doc, core.QueryOpts{})
				s.Release()
			case opAttach:
				err = e.Attach(o.doc, "Sections", o.fl.sec.id)
			case opDetach:
				err = e.Detach(o.doc, "Sections", o.fl.sec.id)
			}
			return err
		})
		return res, err
	}
}

// pairedMedian is the median of a[i]-b[i]: the self time of the layer
// between two rungs, robust to the fsync tail both rungs carry.
func pairedMedian(a, b []int64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(a[i] - b[i])
	}
	return median(d)
}

// trimmedMean is the mean of the samples at or below the 95th percentile:
// a per-op cost that keeps the mix but drops the stalls.
func trimmedMean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sortInt64(s)
	cut := percentile(s, 95)
	n := 0
	for n < len(s) && s[n] <= cut {
		n++
	}
	return mean(s[:n])
}

// metrics summarises the ladder into the T-sourced per-layer numbers.
func (l *ladder) metrics(out map[string]float64) {
	wire, bare, sx, tx, co := l.rungs[rWire].lat, l.rungs[rBare].lat, l.rungs[rSexpr].lat, l.rungs[rTxn].lat, l.rungs[rCore].lat
	out["server.wire_tax_us"] = pairedMedian(wire, sx) / 1000
	out["sexpr.parse_ns_per_op"] = trimmedMean(l.tr.durations("sexpr", "parse"))
	out["sexpr.eval_self_ns_per_op"] = pairedMedian(l.tr.durations("sexpr", "eval"), tx)
	out["txn.begin_ns_per_op"] = trimmedMean(l.tr.durations("txn", "begin"))
	out["txn.commit_ns_per_op"] = trimmedMean(l.tr.durations("txn", "commit"))
	out["core.op_ns_per_op"] = trimmedMean(co)
	out["query.select_ns_per_op"] = trimmedMean(l.tr.durations("query", "select"))
	out["trace.overhead_pct"] = 100 * ratio(pairedMedian(wire, bare), median(toFloat(bare)))
}

func toFloat(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// checkpointAndOpen times a checkpoint of the sexpr rung's database —
// the ladder's ops are in its WAL — then a cold Open of the result.
func (l *ladder) checkpointAndOpen(out map[string]float64) error {
	r := l.rungs[rSexpr]
	_ = r.in.Close()
	start := time.Now()
	if err := r.d.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	out["db.checkpoint_s"] = time.Since(start).Seconds()
	if err := r.d.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	r.d = nil
	start = time.Now()
	d, err := db.Open(db.Options{Dir: r.dir, SyncWAL: true})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	out["db.open_s"] = time.Since(start).Seconds()
	r.d = d
	return nil
}

// writeTrace dumps the spans kept in memory.
func (l *ladder) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{l.s.name, l.tr.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace_"+workload+".json")
}
