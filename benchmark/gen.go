package main

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/uid"
)

// zipf samples ranks 0..n-1 with P(rank r) proportional to 1/(r+1)^s, for
// any s >= 0 (math/rand's Zipf needs s > 1; read_hot wants s = 1). Rank r
// maps to a unit through a seeded permutation, so the hot units differ
// from seed to seed but are the same for every client of one run.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(n int, s float64, seed int64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	z.perm = rand.New(rand.NewSource(seed)).Perm(n)
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	r := sort.SearchFloat64s(z.cdf, rng.Float64())
	if r >= len(z.perm) {
		r = len(z.perm) - 1
	}
	return z.perm[r]
}

// gen emits one client's operation stream. Everything random comes from
// rng, which is seeded from (-seed, client) alone: the same seed gives
// the same programs provided the server hands out the same UIDs, which a
// single-client replay guarantees.
type gen struct {
	s      *spec
	m      *model
	client int
	rng    *rand.Rand
	z      *zipf
	lo, hi int       // write_small: the unit range this client owns
	made   []madeSec // write_small: Sections this client made, oldest first
	n      uint64    // ops emitted, salts build seeds
}

type madeSec struct {
	unit int
	sec  *section
}

func clientSeed(seed int64, client int) int64 { return seed*1000003 + int64(client)*7919 + 1 }

func newGen(s *spec, m *model, seed int64, client int) *gen {
	g := &gen{s: s, m: m, client: client, rng: rand.New(rand.NewSource(clientSeed(seed, client)))}
	if s.zipfS > 0 {
		g.z = newZipf(len(m.units), s.zipfS, seed)
	}
	span := len(m.units) / s.clients
	g.lo, g.hi = client*span, (client+1)*span
	return g
}

func (g *gen) pickUnit() int {
	if g.z != nil {
		return g.z.draw(g.rng)
	}
	return g.lo + g.rng.Intn(g.hi-g.lo)
}

// pickPara draws a loaded paragraph of unit i and its section.
func (g *gen) pickPara(i int) (*section, int) {
	u := g.m.units[i]
	s := u.sections[g.rng.Intn(len(u.sections))]
	return s, g.rng.Intn(len(s.paras))
}

func (g *gen) newOp(k opKind, unit int) *op {
	g.n++
	o := &op{kind: k, client: g.client, unit: unit}
	if unit >= 0 {
		o.doc = g.m.units[unit].doc
		o.title = g.m.units[unit].title
	}
	return o
}

func (g *gen) buildSeed() uint64 {
	return uint64(g.rng.Int63())
}

// next draws the client's next operation from the workload's mix.
func (g *gen) next() *op {
	var o *op
	switch g.s.name {
	case "read_hot":
		o = g.nextReadHot()
	case "write_small":
		o = g.nextWriteSmall()
	case "mixed_shared":
		o = g.nextMixedShared()
	case "bulk_lifecycle":
		o = g.nextBulk()
	}
	o.check = g.n%checkEvery == 0
	o.prog = o.render()
	return o
}

// read_hot: 60% components-of, 10% components-of :level 1, 10%
// ancestors-of, 10% roots-of, 10% indexed select. No writes.
func (g *gen) nextReadHot() *op {
	i := g.pickUnit()
	switch p := g.rng.Intn(100); {
	case p < 60:
		return g.newOp(opComponents, i)
	case p < 70:
		o := g.newOp(opComponents, i)
		o.level = 1
		return o
	case p < 90:
		k := opAncestors
		if p >= 80 {
			k = opRoots
		}
		o := g.newOp(k, i)
		s, pi := g.pickPara(i)
		o.sec, o.obj = s, s.paras[pi]
		return o
	default:
		return g.newOp(opSelect, i)
	}
}

func (g *gen) setOp(i int) *op {
	o := g.newOp(opSet, i)
	s, pi := g.pickPara(i)
	o.sec, o.obj = s, s.paras[pi]
	o.text = textFor(g.buildSeed(), 0)
	o.payload = len(o.text)
	return o
}

// write_small: 80% one-attribute set, 10% make a Section with two
// Paragraphs, 10% delete a Section made earlier. A delete with nothing to
// delete becomes a make, and a make over the cap becomes a delete, so the
// database stays at its loaded size.
func (g *gen) nextWriteSmall() *op {
	i := g.pickUnit()
	p := g.rng.Intn(100)
	if p < 80 {
		return g.setOp(i)
	}
	del := p >= 90
	if len(g.made) == 0 {
		del = false
	} else if len(g.made) >= madeMax {
		del = true
	}
	if del {
		v := g.made[0]
		g.made = g.made[1:]
		o := g.newOp(opDeleteSection, v.unit)
		o.sec = v.sec
		u := g.m.units[v.unit]
		for k, s := range u.made {
			if s == v.sec {
				u.made = append(u.made[:k], u.made[k+1:]...)
				break
			}
		}
		return o
	}
	o := g.newOp(opMakeSection, i)
	o.sections, o.paras, o.wantAll = 1, madeParas, true
	o.seed = g.buildSeed()
	o.payload = len(heading(0)) + madeParas*textBytes
	return o
}

// done records a successful op: in the model, and for a made Section in
// this client's queue of later deletes.
func (g *gen) done(o *op, res []uid.UID) error {
	if err := g.m.apply(o, res); err != nil {
		return err
	}
	if o.kind == opMakeSection {
		u := g.m.units[o.unit]
		g.made = append(g.made, madeSec{unit: o.unit, sec: u.made[len(u.made)-1]})
	}
	return nil
}

// mixed_shared: 50% transactional read (S admission at the unit root),
// 25% set on a paragraph of a shared Section, 15% attach or detach one of
// the client's floaters, 10% snapshot read. Units come from one Zipf
// ranking shared by both clients, so they meet on the same hot roots.
func (g *gen) nextMixedShared() *op {
	i := g.pickUnit()
	switch p := g.rng.Intn(100); {
	case p < 50:
		return g.newOp(opTxnRead, i)
	case p < 75:
		return g.setOp(i)
	case p < 90:
		fs := g.m.floaters[g.client]
		f := fs[g.rng.Intn(len(fs))]
		if f.at >= 0 {
			o := g.newOp(opDetach, f.at)
			o.fl = f
			return o
		}
		for i == f.home { // the home Document already holds it
			i = g.pickUnit()
		}
		o := g.newOp(opAttach, i)
		o.fl = f
		return o
	default:
		return g.newOp(opSnapRead, i)
	}
}

// bulk_lifecycle: build one 137-object composite and delete the oldest,
// so bulkKeep composites are alive at every op boundary.
func (g *gen) nextBulk() *op {
	o := g.bulkBuild(opBulk)
	o.old = g.m.bulks[0].doc
	g.m.bulks = g.m.bulks[1:]
	return o
}

func (g *gen) bulkBuild(k opKind) *op {
	o := g.newOp(k, -1)
	o.newDoc, o.sections, o.paras = true, bulkSections, bulkParas
	o.title = bulkTitle(g.m.bulkSeq)
	g.m.bulkSeq++
	o.seed = g.buildSeed()
	o.payload = len(o.title) + bulkSections*len(heading(0)) + bulkSections*bulkParas*textBytes
	return o
}

func bulkTitle(i int) string { return "bulk-" + unitTitle(i)[4:] }

// loadPhases returns the fixed preload of the workload's dataset as
// phases that must run in order — units, then links, then floaters and
// bulk composites — because a later phase needs UIDs an earlier one
// returns; bind completes such an op once those are in the model. Ops of
// one phase are independent of each other.
func (g *gen) loadPhases(units int) [][]*op {
	var phases [][]*op
	var ops []*op
	for i := 0; i < units; i++ {
		o := g.newOp(opLoadUnit, -1)
		o.unit = i
		o.title = unitTitle(i)
		o.newDoc, o.sections, o.paras, o.wantAll = true, unitSections, sectionParas, true
		o.seed = g.buildSeed()
		ops = append(ops, o)
	}
	phases, ops = append(phases, ops), nil
	if g.s.shared {
		for i := 0; i < units; i++ {
			o := g.newOp(opLink, -1)
			o.unit = i
			ops = append(ops, o)
		}
		phases, ops = append(phases, ops), nil
		for c := 0; c < g.s.clients; c++ {
			for f := 0; f < floatersPerClient; f++ {
				o := g.newOp(opMakeFloater, -1)
				o.client = c
				o.unit = (c*floatersPerClient + f) * units / (g.s.clients * floatersPerClient)
				o.sections, o.paras, o.wantAll = 1, floaterParas, true
				o.seed = g.buildSeed()
				ops = append(ops, o)
			}
		}
	}
	if g.s.name == "bulk_lifecycle" {
		for i := 0; i < bulkKeep; i++ {
			ops = append(ops, g.bulkBuild(opLoadBulk))
		}
	}
	if len(ops) > 0 {
		phases = append(phases, ops)
	}
	return phases
}

// bind fills the operands a load op takes from the model and renders it.
func (g *gen) bind(o *op) {
	switch o.kind {
	case opLink:
		o.doc = g.m.units[(o.unit+1)%len(g.m.units)].doc
		o.links = nil
		for _, s := range g.m.units[o.unit].sections {
			o.links = append(o.links, s.id)
		}
	case opMakeFloater:
		o.doc = g.m.units[o.unit].doc
	}
	o.prog = o.render()
}
