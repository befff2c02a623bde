package main

import (
	"fmt"
	"sort"

	"repro/internal/uid"
)

// The shadow model: what the benchmark believes the database holds. The
// generator draws operands from it, every executor reports created UIDs
// back into it, and replies are checked against its closures. The server
// never sees it — only the programs rendered from it.
//
// Concurrency: during a measured window each client mutates only what it
// owns (its unit range in write_small, its floaters in mixed_shared, the
// bulk queue of the single bulk_lifecycle client), and reads only what
// no client mutates (documents, base sections, paragraphs). Everything
// else is read at quiescent points, after the clients have stopped.

type section struct {
	id    uid.UID
	paras []uid.UID
}

type unit struct {
	doc      uid.UID
	title    string
	sections []*section // loaded with the unit; fixed afterwards
	guests   []*section // shared variant: the previous unit's sections, also attached here
	made     []*section // write_small: Sections made during the run, oldest first
}

// floater is a shared Section one mixed_shared client moves between
// documents: always attached to its home unit, and to at most one other.
type floater struct {
	sec  *section
	home int
	at   int // unit index of the second parent, -1 when detached
}

type bulk struct {
	doc   uid.UID
	title string
}

type model struct {
	shared   bool
	units    []*unit
	floaters [][]*floater // [client]
	bulks    []bulk       // oldest first
	bulkSeq  int

	// texts holds the last value each client wrote to a paragraph it owns
	// (write_small), for the read-back checks.
	texts []map[uid.UID]string // [client]

	// live object counts, one slot per client so clients never share a
	// counter; summed at quiescent points.
	docs, secs, paras []int
}

func newModel(s *spec) *model {
	m := &model{
		shared:   s.shared,
		units:    make([]*unit, s.units),
		floaters: make([][]*floater, s.clients),
		texts:    make([]map[uid.UID]string, s.clients),
		docs:     make([]int, s.clients),
		secs:     make([]int, s.clients),
		paras:    make([]int, s.clients),
	}
	for i := range m.texts {
		m.texts[i] = map[uid.UID]string{}
	}
	return m
}

func unitTitle(i int) string { return fmt.Sprintf("doc-%06d", i) }

// liveObjects returns the model's live counts per class.
func (m *model) liveObjects() (docs, secs, paras int) {
	for c := range m.docs {
		docs += m.docs[c]
		secs += m.secs[c]
		paras += m.paras[c]
	}
	return
}

// sectionsOf lists every Section currently attached to unit i. Quiescent
// points only when floaters are in play.
func (m *model) sectionsOf(i int, withFloaters bool) []*section {
	u := m.units[i]
	out := append([]*section(nil), u.sections...)
	out = append(out, u.guests...)
	out = append(out, u.made...)
	if withFloaters {
		for _, fs := range m.floaters {
			for _, f := range fs {
				if f.home == i || f.at == i {
					out = append(out, f.sec)
				}
			}
		}
	}
	return out
}

// closure is components-of(doc of unit i): every attached Section and its
// Paragraphs. level 1 stops at the Sections.
func (m *model) closure(i int, level int, withFloaters bool) []uid.UID {
	var out []uid.UID
	for _, s := range m.sectionsOf(i, withFloaters) {
		out = append(out, s.id)
		if level != 1 {
			out = append(out, s.paras...)
		}
	}
	return out
}

// parentsOfUnit lists the unit indexes whose Document holds unit i's own
// Sections: i itself, and in the shared variant the next unit too.
func (m *model) parentsOfUnit(i int) []int {
	if !m.shared {
		return []int{i}
	}
	return []int{i, (i + 1) % len(m.units)}
}

func sortUIDs(v []uid.UID) {
	sort.Slice(v, func(i, j int) bool { return v[i].Less(v[j]) })
}

// sameSet reports whether got and want hold the same UIDs.
func sameSet(got, want []uid.UID) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]uid.UID(nil), got...)
	w := append([]uid.UID(nil), want...)
	sortUIDs(g)
	sortUIDs(w)
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

// superSet reports whether got contains every UID of want.
func superSet(got, want []uid.UID) bool {
	have := make(map[uid.UID]struct{}, len(got))
	for _, g := range got {
		have[g] = struct{}{}
	}
	for _, w := range want {
		if _, ok := have[w]; !ok {
			return false
		}
	}
	return true
}
