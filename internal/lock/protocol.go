package lock

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/uid"
)

// RefNature says how a component class is reached from a composite class
// hierarchy root: through exclusive references, shared references, or both
// (different attributes along different paths).
type RefNature uint8

// Reference natures.
const (
	ViaExclusive RefNature = 1 << iota
	ViaShared
)

// Protocol implements the composite-object locking protocols of §7 on top
// of the lock manager: the hierarchical protocol (lock root class, root
// instance, then every component class in an O-mode matching the
// reference nature) and the [GARZ88] root-locking algorithm.
type Protocol struct {
	M *Manager
	E *core.Engine

	infoMu sync.RWMutex
	info   map[string]*classInfoEntry
}

// classInfoEntry caches one ComponentClassInfo result against the catalog
// version it was computed from.
type classInfoEntry struct {
	version uint64
	natures map[string]RefNature
}

// NewProtocol returns a protocol bound to a manager and engine.
func NewProtocol(m *Manager, e *core.Engine) *Protocol {
	return &Protocol{M: m, E: e, info: make(map[string]*classInfoEntry)}
}

// ComponentClassInfo walks the composite class hierarchy of rootClass and
// classifies every component class by the nature of the references
// reaching it. The lock protocol needs exactly this information ("the
// component classes of a composite class hierarchy, and the nature of the
// references to the component classes", §7). Results are cached against
// the catalog version so the admission path does not re-walk the schema
// on every mutation; callers must treat the returned map as read-only.
func (p *Protocol) ComponentClassInfo(rootClass string) (map[string]RefNature, error) {
	cat := p.E.Catalog()
	ver := cat.Version()
	p.infoMu.RLock()
	ent := p.info[rootClass]
	p.infoMu.RUnlock()
	if ent != nil && ent.version == ver {
		return ent.natures, nil
	}
	natures, err := p.componentClassInfoSlow(rootClass)
	if err != nil {
		return nil, err
	}
	p.infoMu.Lock()
	p.info[rootClass] = &classInfoEntry{version: ver, natures: natures}
	p.infoMu.Unlock()
	return natures, nil
}

func (p *Protocol) componentClassInfoSlow(rootClass string) (map[string]RefNature, error) {
	cat := p.E.Catalog()
	if _, err := cat.Class(rootClass); err != nil {
		return nil, err
	}
	out := map[string]RefNature{}
	queue := []string{rootClass}
	visited := map[string]bool{rootClass: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		attrs, err := cat.Attributes(cur)
		if err != nil {
			return nil, err
		}
		for _, spec := range attrs {
			if !spec.Composite {
				continue
			}
			nature := ViaShared
			if spec.Exclusive {
				nature = ViaExclusive
			}
			for _, comp := range cat.AllSubclasses(spec.Domain.Class) {
				before := out[comp]
				out[comp] = before | nature
				if !visited[comp] {
					visited[comp] = true
					queue = append(queue, comp)
				} else if out[comp] != before {
					// Nature changed; re-propagation is unnecessary since
					// nature is per-class, not per-path.
					_ = comp
				}
			}
		}
	}
	return out, nil
}

// lockComposite runs the §7 protocol:
//
//  1. lock the root's class object in IS (read) or IX (write);
//  2. lock the composite object's root instance in S (read) or X (write);
//  3. lock each component class in ISO/IXO when reached via exclusive
//     references and ISOS/IXOS when reached via shared references (both
//     modes when reached both ways).
func (p *Protocol) lockComposite(tx TxID, root uid.UID, write bool) error {
	cl, err := p.E.ClassOf(root)
	if err != nil {
		return err
	}
	classMode, instMode := IS, S
	exclMode, sharedMode := ISO, ISOS
	if write {
		classMode, instMode = IX, X
		exclMode, sharedMode = IXO, IXOS
	}
	if err := p.M.Lock(tx, ClassGranule(cl.Name), classMode); err != nil {
		return err
	}
	if err := p.M.Lock(tx, InstanceGranule(root), instMode); err != nil {
		return err
	}
	info, err := p.ComponentClassInfo(cl.Name)
	if err != nil {
		return err
	}
	// Deterministic order to reduce deadlocks between protocol users.
	names := make([]string, 0, len(info))
	for n := range info {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		if info[n]&ViaExclusive != 0 {
			if err := p.M.Lock(tx, ClassGranule(n), exclMode); err != nil {
				return err
			}
		}
		if info[n]&ViaShared != 0 {
			if err := p.M.Lock(tx, ClassGranule(n), sharedMode); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// LockCompositeRead locks the composite object rooted at root for reading
// (§7 example 1: IS on the root class, S on the root instance, ISO/ISOS on
// the component classes).
func (p *Protocol) LockCompositeRead(tx TxID, root uid.UID) error {
	return p.lockComposite(tx, root, false)
}

// LockCompositeWrite locks the composite object rooted at root for
// updating (§7 example 2: IX, X, IXO/IXOS).
func (p *Protocol) LockCompositeWrite(tx TxID, root uid.UID) error {
	return p.lockComposite(tx, root, true)
}

// LockInstance locks a single object for direct (non-composite) access:
// IS/IX on its class, S/X on the instance — the classical granularity
// protocol.
func (p *Protocol) LockInstance(tx TxID, obj uid.UID, write bool) error {
	cl, err := p.E.ClassOf(obj)
	if err != nil {
		return err
	}
	classMode, instMode := IS, S
	if write {
		classMode, instMode = IX, X
	}
	if err := p.M.Lock(tx, ClassGranule(cl.Name), classMode); err != nil {
		return err
	}
	return p.M.Lock(tx, InstanceGranule(obj), instMode)
}

// LockUnitsWrite admits a writer to the composite units containing each
// of ids: it resolves every id to the roots of the composite objects
// containing it and runs the §7 update protocol (IX class, X root,
// IXO/IXOS component classes) on each root. Because a concurrent attach
// can merge two hierarchies while this transaction waits (the
// Make-Component Rule lets a parentless root become a component), the
// roots are re-resolved after every acquisition round and any roots that
// appeared are locked too, until a round resolves to nothing new
// (lock-coupling). Under 2PL the accumulated locks are all kept.
//
// Two fallbacks keep the lock set well-defined off the happy path:
//   - an id with no object (deleted, or never created) is locked
//     directly (IX class + X instance) so callers racing on a vanished
//     object still serialize;
//   - an id inside a cyclic hierarchy has no parentless ancestor, so the
//     whole cycle stands in for the root: the id and all its ancestors
//     are locked as units.
func (p *Protocol) LockUnitsWrite(tx TxID, ids ...uid.UID) error {
	return p.lockUnits(tx, true, ids)
}

// LockUnitsRead is LockUnitsWrite with the §7 read protocol (IS, S,
// ISO/ISOS) — composite-unit admission for readers.
func (p *Protocol) LockUnitsRead(tx TxID, ids ...uid.UID) error {
	return p.lockUnits(tx, false, ids)
}

func (p *Protocol) lockUnits(tx TxID, write bool, ids []uid.UID) error {
	locked := map[uid.UID]bool{}
	for {
		targets := uid.NewSet()
		for _, id := range ids {
			if err := p.unitRoots(id, targets); err != nil {
				return err
			}
		}
		var fresh []uid.UID
		for _, r := range targets.Slice() {
			if !locked[r] {
				fresh = append(fresh, r)
			}
		}
		if len(fresh) == 0 {
			return nil
		}
		// Deterministic order to reduce deadlocks between protocol users.
		sort.Slice(fresh, func(i, j int) bool { return fresh[i].Less(fresh[j]) })
		for _, r := range fresh {
			if err := p.lockUnitRoot(tx, r, write); err != nil {
				return err
			}
			locked[r] = true
		}
	}
}

// unitRoots adds the unit-root lock targets for id to targets. They are
// resolved in committed state: the acting transaction locked the units
// of both ends of every link it made when it made it.
func (p *Protocol) unitRoots(id uid.UID, targets *uid.Set) error {
	roots, err := p.E.RootsOf(id)
	switch {
	case errors.Is(err, core.ErrNoObject):
		targets.Add(id)
		return nil
	case err != nil:
		return err
	}
	if len(roots) == 0 {
		// Cyclic hierarchy: no parentless ancestor exists.
		targets.Add(id)
		ancs, err := p.E.AncestorsOf(id, core.QueryOpts{})
		if err != nil && !errors.Is(err, core.ErrNoObject) {
			return err
		}
		for _, a := range ancs {
			targets.Add(a)
		}
		return nil
	}
	for _, r := range roots {
		targets.Add(r)
	}
	return nil
}

// lockUnitRoot locks one resolved unit root: the admission variant of the
// composite protocol when its class resolves, a bare instance lock
// otherwise (the class was dropped while the id was in flight — nothing
// left to intention-lock).
func (p *Protocol) lockUnitRoot(tx TxID, root uid.UID, write bool) error {
	if _, err := p.E.ClassOf(root); err != nil {
		mode := S
		if write {
			mode = X
		}
		return p.M.Lock(tx, InstanceGranule(root), mode)
	}
	return p.lockUnit(tx, root, write)
}

// lockUnit is the admission variant of lockComposite: IS/IX on the root's
// class, S/X on the root instance, and ISOS/IXOS on the component classes
// reached via shared references — but NO ISO/IXO on classes reached only
// via exclusive references. The exclusive-side O-locks exist to warn
// direct instance lockers (plain IS/IX + instance lock) that some
// instances of the class are implicitly locked through a root. Unit
// admission never locks components directly: every access — read or
// write, named or implied — resolves to unit roots first, and Topology
// Rules 1–3 make exclusively-referenced components single-parented, so
// two units can only overlap through shared references. Root S/X locks
// therefore arbitrate all exclusive-side conflicts, while the
// ISOS/IXOS↔IXOS class conflicts still serialize writers whose
// hierarchies may overlap invisibly through shared components. Dropping
// ISO/IXO is what lets writers on disjoint hierarchies of the same
// classes — and writers touching parentless instances of a component
// class — run in parallel instead of colliding at the class granule.
func (p *Protocol) lockUnit(tx TxID, root uid.UID, write bool) error {
	cl, err := p.E.ClassOf(root)
	if err != nil {
		return err
	}
	classMode, instMode, sharedMode := IS, S, ISOS
	if write {
		classMode, instMode, sharedMode = IX, X, IXOS
	}
	if err := p.M.Lock(tx, ClassGranule(cl.Name), classMode); err != nil {
		return err
	}
	if err := p.M.Lock(tx, InstanceGranule(root), instMode); err != nil {
		return err
	}
	info, err := p.ComponentClassInfo(cl.Name)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(info))
	for n := range info {
		if info[n]&ViaShared != 0 {
			names = append(names, n)
		}
	}
	sortStrings(names)
	for _, n := range names {
		if err := p.M.Lock(tx, ClassGranule(n), sharedMode); err != nil {
			return err
		}
	}
	return nil
}

// LockForDelete admits the deletion of each of ids: first the units
// containing the ids themselves, then — with those X locks held, so the
// cascade's reach is frozen — the units containing every component of
// them and every surviving composite parent of those components, since
// the Deletion Rule edits parents in other hierarchies when a shared
// component or a last dependent-shared child is reaped. The reach is
// read in committed state, where every other transaction's links are,
// and, once the transaction has written, in its own view, where the
// cascade runs: a component it attached can have parents whose units it
// never locked.
func (p *Protocol) LockForDelete(tx TxID, ids ...uid.UID) error {
	if err := p.LockUnitsWrite(tx, ids...); err != nil {
		return err
	}
	views := []core.View{p.E.View}
	if p.E.Wrote(core.TxnID(tx)) {
		views = append(views, p.E.TxView(core.TxnID(tx)))
	}
	affected := uid.NewSet(ids...)
	for _, v := range views {
		for _, id := range ids {
			comps, err := v.ComponentsOf(id, core.QueryOpts{})
			if errors.Is(err, core.ErrNoObject) {
				continue // vanished while waiting; instance lock held above
			} else if err != nil {
				return err
			}
			for _, c := range comps {
				affected.Add(c)
				parents, _ := v.ParentsOf(c, core.QueryOpts{}) // a vanished component has none to lock
				for _, q := range parents {
					affected.Add(q)
				}
			}
		}
	}
	return p.LockUnitsWrite(tx, affected.Slice()...)
}

// LockSchema admits a schema change (§4). It takes X on the class
// granule of every class scope names and of each of its subclasses, in
// canonical order: by Figs. 7–8 that waits for every IS, IX, ISO, IXO,
// ISOS and IXOS on them, and no instance of them can be created until the
// change ends. The X requests queue (Manager.LockQueued), so writers that
// keep arriving cannot starve the change. If it rewrites instances, it
// then takes delete admission (LockForDelete) to every instance of those
// classes, because unit admission locks no class granule for a component
// reached only through exclusive references, so only the units say who
// is writing it; delete admission also covers the components and other
// parents a cascading rewrite reaches. scope is read again after each
// round and any class it newly names is locked too, until a round adds
// nothing: a concurrent superclass change can grow a subclass set.
func (p *Protocol) LockSchema(tx TxID, scope func() []string, rewrites bool) error {
	cat := p.E.Catalog()
	locked := map[string]bool{}
	for {
		var fresh []string
		for _, c := range scope() {
			for _, sub := range cat.AllSubclasses(c) {
				if !locked[sub] {
					locked[sub] = true
					fresh = append(fresh, sub)
				}
			}
		}
		if len(fresh) == 0 {
			return nil
		}
		sortStrings(fresh)
		for _, c := range fresh {
			if err := p.M.LockQueued(tx, ClassGranule(c), X); err != nil {
				return err
			}
		}
		if !rewrites {
			continue
		}
		var ids []uid.UID
		for _, c := range fresh {
			ext, err := p.E.Extent(c, false)
			if err != nil {
				continue // dropped while this transaction waited
			}
			ids = append(ids, ext...)
		}
		if err := p.LockForDelete(tx, ids...); err != nil {
			return err
		}
	}
}

// LockViaRoots implements the [GARZ88] root-locking algorithm: to access a
// component object directly, lock the root of each composite object
// containing it (S for read, X for write) instead of the component itself;
// every component of those composite objects is then implicitly locked.
//
// As §7 observes, this algorithm CANNOT be used with shared composite
// references: two components may belong to overlapping composite objects
// through different roots, so the implicit locks of two transactions can
// conflict without any explicit lock conflict. TestRootLockAnomaly
// demonstrates the failure on the paper's Figure 5.
func (p *Protocol) LockViaRoots(tx TxID, obj uid.UID, write bool) error {
	roots, err := p.E.RootsOf(obj)
	if err != nil {
		return err
	}
	mode := S
	classMode := IS
	if write {
		mode = X
		classMode = IX
	}
	for _, r := range roots {
		cl, err := p.E.ClassOf(r)
		if err != nil {
			return err
		}
		if err := p.M.Lock(tx, ClassGranule(cl.Name), classMode); err != nil {
			return err
		}
		if err := p.M.Lock(tx, InstanceGranule(r), mode); err != nil {
			return err
		}
	}
	return nil
}

// ImplicitHold describes the lock a transaction implicitly holds on an
// instance because it locked a root covering that instance.
type ImplicitHold struct {
	Tx   TxID
	Obj  uid.UID
	Root uid.UID
	Mode Mode
}

// ImplicitConflicts audits the root-locking algorithm: it expands every
// explicitly held root S/X lock into the implicit locks on all components
// of the locked composite object and reports pairs of implicit locks from
// different transactions that conflict. A sound protocol never lets this
// return a non-empty slice; [GARZ88] with shared references does.
func (p *Protocol) ImplicitConflicts(txs []TxID) ([][2]ImplicitHold, error) {
	var holds []ImplicitHold
	for _, tx := range txs {
		for _, rootID := range p.lockedInstances(tx) {
			var mode Mode
			switch {
			case p.M.Holds(tx, InstanceGranule(rootID), X):
				mode = X
			case p.M.Holds(tx, InstanceGranule(rootID), S):
				mode = S
			default:
				continue
			}
			comps, err := p.E.ComponentsOf(rootID, core.QueryOpts{})
			if err != nil {
				return nil, err
			}
			holds = append(holds, ImplicitHold{tx, rootID, rootID, mode})
			for _, c := range comps {
				holds = append(holds, ImplicitHold{tx, c, rootID, mode})
			}
		}
	}
	var out [][2]ImplicitHold
	for i := 0; i < len(holds); i++ {
		for j := i + 1; j < len(holds); j++ {
			a, b := holds[i], holds[j]
			if a.Tx == b.Tx || a.Obj != b.Obj {
				continue
			}
			if !Compatible(a.Mode, b.Mode) {
				out = append(out, [2]ImplicitHold{a, b})
			}
		}
	}
	return out, nil
}

// lockedInstances returns the instance granules tx holds locks on.
func (p *Protocol) lockedInstances(tx TxID) []uid.UID {
	p.M.mu.Lock()
	defer p.M.mu.Unlock()
	var out []uid.UID
	for key := range p.M.held[tx] {
		var c uint32
		var s uint64
		if n, err := fmt.Sscanf(key, "obj:%d:%d", &c, &s); n == 2 && err == nil {
			out = append(out, uid.UID{Class: uid.ClassID(c), Serial: s})
		}
	}
	return out
}
