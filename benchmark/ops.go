package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/uid"
)

// opKind enumerates the request programs the generator emits. The first
// group loads a dataset; the second is the measured mixes.
type opKind uint8

const (
	opLoadUnit    opKind = iota // one transaction building a 37-object unit
	opLink                      // shared variant: attach unit i's Sections to unit i+1's Document
	opMakeFloater               // mixed_shared: a movable shared Section under its home Document
	opLoadBulk                  // bulk_lifecycle: one 137-object composite

	opComponents    // (components-of #doc [:level 1])
	opAncestors     // (ancestors-of #para)
	opRoots         // (roots-of #para)
	opSelect        // (select Document :where (= Title "..."))
	opSet           // (begin) (set #para Text "...") (commit)
	opMakeSection   // (begin) Section + 2 Paragraphs under #doc (commit)
	opDeleteSection // (begin) (delete #section) (commit)
	opTxnRead       // (begin) (get #doc Title) (components-of #doc) (commit)
	opSnapRead      // (snapshot begin) (components-of #doc) (snapshot release)
	opAttach        // (begin) (attach #doc Sections #floater) (commit)
	opDetach        // (begin) (detach #doc Sections #floater) (commit)
	opBulk          // build a 137-object composite, then delete the oldest one
)

var opNames = [...]string{
	"load-unit", "link", "make-floater", "load-bulk",
	"components-of", "ancestors-of", "roots-of", "select", "set", "make-section",
	"delete-section", "txn-read", "snapshot-read", "attach", "detach", "bulk",
}

func (k opKind) String() string { return opNames[k] }

// op is one generated operation: typed operands for the in-process rungs
// and the rendered program for the wire. One op is one request frame.
type op struct {
	kind   opKind
	client int
	unit   int // index of the target unit, -1 when none

	doc   uid.UID // target or parent Document
	obj   uid.UID // paragraph (set, ancestors-of, roots-of)
	sec   *section
	fl    *floater
	old   uid.UID   // opBulk: the composite deleted
	links []uid.UID // opLink: the Sections attached to doc
	level int
	title string

	// Builds create sections x paras objects under doc, or under a new
	// Document titled title when newDoc. Paragraph text i is textFor(seed, i).
	newDoc          bool
	sections, paras int
	wantAll         bool // reply carries every created UID, not only the root
	seed            uint64

	text    string // opSet
	payload int    // user attribute bytes this op writes
	prog    string
	check   bool // compare the reply against the model
}

func ref(u uid.UID) string {
	return "#" + strconv.FormatUint(uint64(u.Class), 10) + ":" + strconv.FormatUint(u.Serial, 10)
}

const hexDigits = "0123456789abcdef"

// textFor is the deterministic textBytes-long payload number i of a seed
// (splitmix64 rendered as hex), so a build's paragraphs need not be
// stored to be replayed at another rung.
func textFor(seed uint64, i int) string {
	var b [textBytes]byte
	x := seed + uint64(i)*0x9e3779b97f4a7c15
	for j := 0; j < textBytes; j += 16 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for k := 0; k < 16 && j+k < textBytes; k++ {
			b[j+k] = hexDigits[z&15]
			z >>= 4
		}
	}
	return string(b[:])
}

func heading(i int) string { return "h" + strconv.Itoa(i) }

// render writes the op's request program.
func (o *op) render() string {
	var b strings.Builder
	switch o.kind {
	case opLoadUnit, opMakeFloater, opLoadBulk, opMakeSection:
		b.WriteString("(begin)")
		o.renderBuild(&b)
		b.WriteString(" (commit) ")
		o.renderRefs(&b)
	case opBulk:
		b.WriteString("(begin)")
		o.renderBuild(&b)
		b.WriteString(" (commit) (begin) (delete ")
		b.WriteString(ref(o.old))
		b.WriteString(") (commit) ")
		o.renderRefs(&b)
	case opLink:
		b.WriteString("(begin)")
		for _, s := range o.links {
			fmt.Fprintf(&b, " (attach %s Sections %s)", ref(o.doc), ref(s))
		}
		b.WriteString(" (commit)")
	case opComponents:
		if o.level > 0 {
			fmt.Fprintf(&b, "(components-of %s :level %d)", ref(o.doc), o.level)
		} else {
			fmt.Fprintf(&b, "(components-of %s)", ref(o.doc))
		}
	case opAncestors:
		fmt.Fprintf(&b, "(ancestors-of %s)", ref(o.obj))
	case opRoots:
		fmt.Fprintf(&b, "(roots-of %s)", ref(o.obj))
	case opSelect:
		fmt.Fprintf(&b, "(select Document :where (= Title %q))", o.title)
	case opSet:
		fmt.Fprintf(&b, "(begin) (set %s Text %q) (commit)", ref(o.obj), o.text)
	case opDeleteSection:
		fmt.Fprintf(&b, "(begin) (delete %s) (commit)", ref(o.sec.id))
	case opTxnRead:
		fmt.Fprintf(&b, "(begin) (get %s Title) (define r (components-of %s)) (commit) r", ref(o.doc), ref(o.doc))
	case opSnapRead:
		fmt.Fprintf(&b, "(snapshot begin) (define r (components-of %s)) (snapshot release) r", ref(o.doc))
	case opAttach:
		fmt.Fprintf(&b, "(begin) (attach %s Sections %s) (commit)", ref(o.doc), ref(o.fl.sec.id))
	case opDetach:
		fmt.Fprintf(&b, "(begin) (detach %s Sections %s) (commit)", ref(o.doc), ref(o.fl.sec.id))
	}
	return b.String()
}

func (o *op) renderBuild(b *strings.Builder) {
	parent := "d"
	if o.newDoc {
		fmt.Fprintf(b, " (define d (make Document :Title %q))", o.title)
	} else {
		parent = ref(o.doc)
	}
	n := 0
	for s := 0; s < o.sections; s++ {
		fmt.Fprintf(b, " (define s%d (make Section :Heading %q :parent ((%s Sections))))", s, heading(s), parent)
		for p := 0; p < o.paras; p++ {
			if o.wantAll {
				fmt.Fprintf(b, " (define p%d (make Paragraph :Text %q :parent ((s%d Content))))", n, textFor(o.seed, n), s)
			} else {
				fmt.Fprintf(b, " (make Paragraph :Text %q :parent ((s%d Content)))", textFor(o.seed, n), s)
			}
			n++
		}
	}
}

// renderRefs ends a build program with the created UIDs in creation
// order — (refs ...) keeps argument order — or with the root alone.
func (o *op) renderRefs(b *strings.Builder) {
	b.WriteString("(refs")
	if o.newDoc {
		b.WriteString(" d")
	}
	if o.wantAll {
		n := 0
		for s := 0; s < o.sections; s++ {
			fmt.Fprintf(b, " s%d", s)
			for p := 0; p < o.paras; p++ {
				fmt.Fprintf(b, " p%d", n)
				n++
			}
		}
	}
	b.WriteString(")")
}

// parseRefs extracts the #class:serial tokens of a reply, in order.
func parseRefs(reply string) []uid.UID {
	var out []uid.UID
	for i := 0; i < len(reply); i++ {
		if reply[i] != '#' {
			continue
		}
		j := i + 1
		var c, s uint64
		for ; j < len(reply) && reply[j] >= '0' && reply[j] <= '9'; j++ {
			c = c*10 + uint64(reply[j]-'0')
		}
		if j >= len(reply) || reply[j] != ':' {
			continue
		}
		for j++; j < len(reply) && reply[j] >= '0' && reply[j] <= '9'; j++ {
			s = s*10 + uint64(reply[j]-'0')
		}
		out = append(out, uid.UID{Class: uid.ClassID(c), Serial: s})
		i = j - 1
	}
	return out
}

// sectionsFrom splits a build's created UIDs (after the optional root)
// into sections of n paragraphs each.
func sectionsFrom(ids []uid.UID, sections, paras int) ([]*section, error) {
	if len(ids) != sections*(1+paras) {
		return nil, fmt.Errorf("build returned %d refs, want %d", len(ids), sections*(1+paras))
	}
	out := make([]*section, sections)
	for s := range out {
		base := s * (1 + paras)
		out[s] = &section{id: ids[base], paras: append([]uid.UID(nil), ids[base+1:base+1+paras]...)}
	}
	return out, nil
}

// apply records a successful op in the model. res is what the executor
// returned: created UIDs for builds, the result set for queries.
func (m *model) apply(o *op, res []uid.UID) error {
	c := o.client
	switch o.kind {
	case opLoadUnit:
		if len(res) < 1 {
			return fmt.Errorf("%s: empty reply", o.kind)
		}
		secs, err := sectionsFrom(res[1:], o.sections, o.paras)
		if err != nil {
			return err
		}
		m.units[o.unit] = &unit{doc: res[0], title: o.title, sections: secs}
		m.docs[c]++
		m.secs[c] += o.sections
		m.paras[c] += o.sections * o.paras
	case opLink:
		next := m.units[(o.unit+1)%len(m.units)]
		next.guests = append(next.guests, m.units[o.unit].sections...)
	case opMakeFloater:
		secs, err := sectionsFrom(res, 1, o.paras)
		if err != nil {
			return err
		}
		m.floaters[c] = append(m.floaters[c], &floater{sec: secs[0], home: o.unit, at: -1})
		m.secs[c]++
		m.paras[c] += o.paras
	case opLoadBulk, opBulk:
		if len(res) != 1 {
			return fmt.Errorf("%s: reply has %d refs, want 1", o.kind, len(res))
		}
		m.bulks = append(m.bulks, bulk{doc: res[0], title: o.title})
		if o.kind == opLoadBulk {
			m.docs[c]++
			m.secs[c] += o.sections
			m.paras[c] += o.sections * o.paras
		}
	case opMakeSection:
		secs, err := sectionsFrom(res, 1, o.paras)
		if err != nil {
			return err
		}
		m.units[o.unit].made = append(m.units[o.unit].made, secs[0])
		m.secs[c]++
		m.paras[c] += o.paras
	case opDeleteSection:
		m.secs[c]--
		m.paras[c] -= len(o.sec.paras)
	case opSet:
		if !m.shared { // two clients may write one paragraph of a shared Section
			m.texts[c][o.obj] = o.text
		}
	case opAttach:
		o.fl.at = o.unit
	case opDetach:
		o.fl.at = -1
	}
	return nil
}

// verify compares a reply with the model. quiescent says no other client
// is running, which makes closures that include floaters exact.
func (m *model) verify(o *op, res []uid.UID, quiescent bool) error {
	var want []uid.UID
	exact := true
	switch o.kind {
	case opComponents, opTxnRead, opSnapRead:
		floaters := m.shared && quiescent
		want = m.closure(o.unit, o.level, floaters)
		exact = !m.shared || quiescent
	case opAncestors:
		want = []uid.UID{o.sec.id}
		for _, p := range m.parentsOfUnit(o.unit) {
			want = append(want, m.units[p].doc)
		}
	case opRoots:
		for _, p := range m.parentsOfUnit(o.unit) {
			want = append(want, m.units[p].doc)
		}
	case opSelect:
		want = []uid.UID{o.doc}
	default:
		return nil
	}
	ok := sameSet(res, want)
	if !exact {
		ok = superSet(res, want)
	}
	if !ok {
		return fmt.Errorf("%s on unit %d: reply has %d refs, model %d (exact=%v)", o.kind, o.unit, len(res), len(want), exact)
	}
	return nil
}
