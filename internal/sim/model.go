// Package sim is a model-based workload harness for the composite-object
// engine: it drives random seeded operation sequences through txn.Manager
// and checks, after every step, that the engine's state matches a pure
// in-memory reference model — partition sets IX/DX/IS/DS, reverse D/X
// flags, Topology Rules 1–4, and Deletion-Rule reachability. Failures are
// shrunk to a minimal op trace and reported with the seed.
//
// The model deliberately mirrors the engine's algorithms (attach §2.4,
// the Deletion Rule cascade, the §4.2 type changes) but shares no code
// with it: it is a second, independent implementation of the paper's
// semantics over plain maps and slices, with no catalog, no cache, no
// storage, and no deferred replay. Deferred schema changes are applied
// eagerly in the model; this is equivalent because the harness reads
// every object after every step, which forces the engine's lazy
// ApplyPending replay, so no object ever carries stale flags across ops.
package sim

import (
	"fmt"
	"sort"

	"repro/internal/uid"
)

// attrSpec is the model's view of one attribute: a primitive (Domain ==
// "") or a reference attribute with composite/exclusive/dependent flags
// that schema-evolution ops mutate at runtime.
type attrSpec struct {
	Name      string
	Domain    string // referenced class; "" = primitive int
	SetOf     bool
	Composite bool
	Exclusive bool
	Dependent bool
}

// modelClass is a class definition: attributes in definition order (the
// Deletion-Rule cascade visits them in this order, as the engine does).
type modelClass struct {
	Name  string
	Attrs []attrSpec
}

// revRef mirrors object.ReverseRef: one composite parent with the D and X
// flags of the referencing attribute.
type revRef struct {
	Parent    uid.UID
	Dependent bool
	Exclusive bool
}

// modelObj is one instance: a Tag value, forward reference lists per
// attribute (in insertion order, as value collections keep it), and the
// reverse composite references.
type modelObj struct {
	ID     uid.UID
	Class  string
	Tag    int64
	HasTag bool
	Refs   map[string][]uid.UID
	Rev    []revRef
}

func (o *modelObj) clone() *modelObj {
	c := &modelObj{ID: o.ID, Class: o.Class, Tag: o.Tag, HasTag: o.HasTag,
		Refs: make(map[string][]uid.UID, len(o.Refs)),
		Rev:  append([]revRef(nil), o.Rev...)}
	for k, v := range o.Refs {
		c.Refs[k] = append([]uid.UID(nil), v...)
	}
	return c
}

func (o *modelObj) findRev(parent uid.UID) int {
	for i, r := range o.Rev {
		if r.Parent == parent {
			return i
		}
	}
	return -1
}

// addRev mirrors object.AddReverse: overwrite flags when the parent is
// already present, append otherwise.
func (o *modelObj) addRev(r revRef) {
	if i := o.findRev(r.Parent); i >= 0 {
		o.Rev[i] = r
		return
	}
	o.Rev = append(o.Rev, r)
}

func (o *modelObj) removeRev(parent uid.UID) {
	if i := o.findRev(parent); i >= 0 {
		o.Rev = append(o.Rev[:i], o.Rev[i+1:]...)
	}
}

func (o *modelObj) hasExclusiveRev() bool {
	for _, r := range o.Rev {
		if r.Exclusive {
			return true
		}
	}
	return false
}

// ds returns the dependent-shared parents, the set whose emptiness decides
// the Deletion Rule's lastDS condition.
func (o *modelObj) ds() []uid.UID {
	var out []uid.UID
	for _, r := range o.Rev {
		if r.Dependent && !r.Exclusive {
			out = append(out, r.Parent)
		}
	}
	return out
}

// partition returns the parents in the partition selected by (dep, excl),
// Definition 1 of §2.2.
func (o *modelObj) partition(dep, excl bool) []uid.UID {
	var out []uid.UID
	for _, r := range o.Rev {
		if r.Dependent == dep && r.Exclusive == excl {
			out = append(out, r.Parent)
		}
	}
	return out
}

// Model is the reference state: class specs (mutated by evolution ops)
// plus all live instances.
type Model struct {
	classes map[string]*modelClass
	objs    map[uid.UID]*modelObj
}

// newModel builds the model over the given class definitions.
func newModel(classes []modelClass) *Model {
	m := &Model{classes: map[string]*modelClass{}, objs: map[uid.UID]*modelObj{}}
	for i := range classes {
		c := classes[i]
		c.Attrs = append([]attrSpec(nil), classes[i].Attrs...)
		m.classes[c.Name] = &c
	}
	return m
}

// Clone deep-copies the model. The harness applies every op to a clone
// and promotes it only on success, so a failed op leaves the model
// untouched — matching the engine, whose mutations are atomic.
func (m *Model) Clone() *Model {
	c := &Model{classes: make(map[string]*modelClass, len(m.classes)),
		objs: make(map[uid.UID]*modelObj, len(m.objs))}
	for name, cl := range m.classes {
		cc := &modelClass{Name: cl.Name, Attrs: append([]attrSpec(nil), cl.Attrs...)}
		c.classes[name] = cc
	}
	for id, o := range m.objs {
		c.objs[id] = o.clone()
	}
	return c
}

// sortedIDs returns the model's objects in UID order.
func (m *Model) sortedIDs() []uid.UID {
	ids := make([]uid.UID, 0, len(m.objs))
	for id := range m.objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].Less(ids[b]) })
	return ids
}

// spec returns the attribute spec (mutable) or nil.
func (m *Model) spec(class, attr string) *attrSpec {
	cl := m.classes[class]
	if cl == nil {
		return nil
	}
	for i := range cl.Attrs {
		if cl.Attrs[i].Name == attr {
			return &cl.Attrs[i]
		}
	}
	return nil
}

// extent returns the sorted UIDs of the class's live instances.
func (m *Model) extent(class string) []uid.UID {
	var out []uid.UID
	for id, o := range m.objs {
		if o.Class == class {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// instancesOf returns the class's instances in sorted order. The engine
// iterates its extent in insertion order; every place the model uses this
// the iteration order only affects which of several violations is
// reported, never whether one exists, so sorted order is fine.
func (m *Model) instancesOf(class string) []*modelObj {
	var out []*modelObj
	for _, id := range m.extent(class) {
		out = append(out, m.objs[id])
	}
	return out
}

// makeComponentCheck is the Make-Component Rule (§2.2): an exclusive
// reference requires a child with no composite parent at all; a shared
// reference requires no exclusive composite parent.
func (m *Model) makeComponentCheck(child *modelObj, spec *attrSpec) error {
	if spec.Exclusive {
		if len(child.Rev) > 0 {
			return fmt.Errorf("model: %v already has a composite parent", child.ID)
		}
		return nil
	}
	if child.hasExclusiveRev() {
		return fmt.Errorf("model: %v has an exclusive composite parent", child.ID)
	}
	return nil
}

// Parent names one (parent, attribute) pair of a make message. Class is
// the parent's class, resolvable even when the parent object is dead —
// the engine derives it from the UID's class bits.
type Parent struct {
	ID    uid.UID
	Class string
	Attr  string
}

// New mirrors Engine.New: validate multi-parent specs, create, set Tag,
// then attach to each parent in order. id is the UID the engine assigned
// (uid.Nil when the engine op failed; the state is discarded then, only
// the error verdict matters).
func (m *Model) New(id uid.UID, class string, tag int64, parents []Parent) error {
	if m.classes[class] == nil {
		return fmt.Errorf("model: no class %q", class)
	}
	if len(parents) > 1 {
		for _, p := range parents {
			spec := m.spec(p.Class, p.Attr)
			if spec == nil {
				return fmt.Errorf("model: no attr %s.%s", p.Class, p.Attr)
			}
			if !spec.Composite || spec.Exclusive {
				return fmt.Errorf("model: multiple parents require shared composite attrs")
			}
		}
	}
	o := &modelObj{ID: id, Class: class, Tag: tag, HasTag: true, Refs: map[string][]uid.UID{}}
	m.objs[id] = o
	for _, p := range parents {
		if err := m.attach(p.ID, p.Attr, id); err != nil {
			return err
		}
	}
	return nil
}

// attach mirrors attachCheckedLocked (§2.4): resolve parent, reject
// self-reference, resolve spec and child, check domain, then the forward
// no-op / occupied rules, then the Make-Component Rule for composite
// attrs, then link.
func (m *Model) attach(parentID uid.UID, attr string, childID uid.UID) error {
	po := m.objs[parentID]
	if po == nil {
		return fmt.Errorf("model: no object %v", parentID)
	}
	if parentID == childID {
		return fmt.Errorf("model: %v cannot be a component of itself", parentID)
	}
	spec := m.spec(po.Class, attr)
	if spec == nil {
		return fmt.Errorf("model: no attr %s.%s", po.Class, attr)
	}
	co := m.objs[childID]
	if co == nil {
		return fmt.Errorf("model: no object %v", childID)
	}
	if spec.Domain == "" {
		return fmt.Errorf("model: %s.%s has a primitive domain", po.Class, attr)
	}
	if co.Class != spec.Domain {
		return fmt.Errorf("model: %s.%s wants %s, got %s", po.Class, attr, spec.Domain, co.Class)
	}
	cur := po.Refs[attr]
	for _, r := range cur {
		if r == childID {
			return nil // already attached: no-op
		}
	}
	if !spec.SetOf && len(cur) > 0 {
		return fmt.Errorf("model: %s.%s of %v occupied", po.Class, attr, parentID)
	}
	if spec.Composite {
		if err := m.makeComponentCheck(co, spec); err != nil {
			return err
		}
		co.addRev(revRef{Parent: parentID, Dependent: spec.Dependent, Exclusive: spec.Exclusive})
	}
	po.Refs[attr] = append(cur, childID)
	return nil
}

// detach mirrors Engine.Detach: the forward reference must exist; the
// reverse reference is removed only when the attribute is currently
// composite (a reference attached while composite and detached after an
// I1 change leaves no reverse ref to clean — the I1 rewrite removed it).
func (m *Model) detach(parentID uid.UID, attr string, childID uid.UID) error {
	po := m.objs[parentID]
	if po == nil {
		return fmt.Errorf("model: no object %v", parentID)
	}
	spec := m.spec(po.Class, attr)
	if spec == nil {
		return fmt.Errorf("model: no attr %s.%s", po.Class, attr)
	}
	found := false
	for _, r := range po.Refs[attr] {
		if r == childID {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("model: %v.%s does not reference %v", parentID, attr, childID)
	}
	po.Refs[attr] = removeAll(po.Refs[attr], childID)
	if spec.Composite {
		if co := m.objs[childID]; co != nil {
			co.removeRev(parentID)
		}
	}
	return nil
}

func removeAll(s []uid.UID, u uid.UID) []uid.UID {
	out := s[:0]
	for _, r := range s {
		if r != u {
			out = append(out, r)
		}
	}
	return out
}

// setTag mirrors Txn.WriteAttr of a primitive attribute: the object must
// exist (the transaction snapshots it first).
func (m *Model) setTag(id uid.UID, tag int64) error {
	o := m.objs[id]
	if o == nil {
		return fmt.Errorf("model: no object %v", id)
	}
	o.Tag, o.HasTag = tag, true
	return nil
}

// Ref is a reference plus its class (from the UID's class bits), needed
// to validate dangling references the way the catalog does.
type Ref struct {
	ID    uid.UID
	Class string
}

// setRefs mirrors Engine.Set on a reference attribute: domain validation
// first (against UID class bits, so dangling refs of the right class
// pass), then — composite only — diff the sets, validate every addition
// (existence, self-ref, Make-Component) before mutating, drop reverse
// refs of removals (dangling ones silently), link additions, and store
// the new value verbatim.
func (m *Model) setRefs(id uid.UID, attr string, refs []Ref) error {
	o := m.objs[id]
	if o == nil {
		return fmt.Errorf("model: no object %v", id)
	}
	spec := m.spec(o.Class, attr)
	if spec == nil {
		return fmt.Errorf("model: no attr %s.%s", o.Class, attr)
	}
	if spec.Domain == "" {
		return fmt.Errorf("model: %s.%s is primitive", o.Class, attr)
	}
	if !spec.SetOf && len(refs) > 1 {
		return fmt.Errorf("model: collection value for single-valued %s.%s", o.Class, attr)
	}
	for _, r := range refs {
		if r.Class != spec.Domain {
			return fmt.Errorf("model: %s.%s wants %s, got %s", o.Class, attr, spec.Domain, r.Class)
		}
	}
	newIDs := make([]uid.UID, len(refs))
	for i, r := range refs {
		newIDs[i] = r.ID
	}
	if !spec.Composite {
		o.Refs[attr] = newIDs
		return nil
	}
	inOld := map[uid.UID]bool{}
	for _, r := range o.Refs[attr] {
		inOld[r] = true
	}
	inNew := map[uid.UID]bool{}
	for _, r := range newIDs {
		inNew[r] = true
	}
	var added []*modelObj
	for _, r := range newIDs {
		if inOld[r] {
			continue
		}
		child := m.objs[r]
		if child == nil {
			return fmt.Errorf("model: no object %v", r)
		}
		if r == id {
			return fmt.Errorf("model: %v cannot be a component of itself", id)
		}
		if err := m.makeComponentCheck(child, spec); err != nil {
			return err
		}
		added = append(added, child)
	}
	for _, r := range o.Refs[attr] {
		if inNew[r] {
			continue
		}
		if child := m.objs[r]; child != nil {
			child.removeRev(id)
		}
	}
	for _, child := range added {
		child.addRev(revRef{Parent: id, Dependent: spec.Dependent, Exclusive: spec.Exclusive})
	}
	o.Refs[attr] = newIDs
	return nil
}

// Delete mirrors the Deletion-Rule cascade: DFS with the deleted set
// doubling as the visited set, composite attributes in definition order,
// children in forward-reference order, RemoveReverse before the lastDS
// test, then unlink the victim from every surviving parent (all
// attributes, weak ones included; weak refs from non-parents are left
// dangling, as in ORION). Returns the casualty list.
func (m *Model) Delete(id uid.UID) ([]uid.UID, error) {
	if m.objs[id] == nil {
		return nil, fmt.Errorf("model: no object %v", id)
	}
	deleted := map[uid.UID]bool{}
	var order []uid.UID
	m.deleteRec(id, deleted, &order)
	return order, nil
}

func (m *Model) deleteRec(id uid.UID, deleted map[uid.UID]bool, order *[]uid.UID) {
	if deleted[id] {
		return
	}
	o := m.objs[id]
	if o == nil {
		return
	}
	deleted[id] = true
	*order = append(*order, id)
	cl := m.classes[o.Class]
	for i := range cl.Attrs {
		spec := &cl.Attrs[i]
		if spec.Domain == "" || !spec.Composite {
			continue
		}
		for _, childID := range append([]uid.UID(nil), o.Refs[spec.Name]...) {
			m.reap(id, childID, spec.Dependent, spec.Exclusive, deleted, order)
		}
	}
	m.unlinkFromParents(id, deleted)
	delete(m.objs, id)
}

// reap applies the Deletion Rule to one child after its parent died:
// remove the reverse reference first, then delete the child if the
// reference was dependent and either exclusive or the last
// dependent-shared one.
func (m *Model) reap(parent, childID uid.UID, dep, excl bool, deleted map[uid.UID]bool, order *[]uid.UID) {
	child := m.objs[childID]
	if child == nil || deleted[childID] {
		return
	}
	child.removeRev(parent)
	lastDS := len(child.ds()) == 0
	if dep && (excl || lastDS) {
		m.deleteRec(childID, deleted, order)
	}
}

// unlinkFromParents strips forward references to the victim from every
// surviving reverse parent, across all of that parent's attributes.
func (m *Model) unlinkFromParents(id uid.UID, deleted map[uid.UID]bool) {
	o := m.objs[id]
	for _, r := range append([]revRef(nil), o.Rev...) {
		if deleted[r.Parent] {
			continue
		}
		p := m.objs[r.Parent]
		if p == nil {
			continue
		}
		for attr, refs := range p.Refs {
			p.Refs[attr] = removeAll(refs, id)
		}
	}
}

// changeAttributeType mirrors the catalog's I1–I4 validity rules plus the
// instance flag rewrite. Deferred and immediate modes land in the same
// state here because the harness forces the engine's deferred replay
// after every op (see the package comment).
func (m *Model) changeAttributeType(class, attr, change string) error {
	sp := m.spec(class, attr)
	if sp == nil {
		return fmt.Errorf("model: no attr %s.%s", class, attr)
	}
	if !sp.Composite {
		return fmt.Errorf("model: %s of non-composite %s.%s", change, class, attr)
	}
	switch change {
	case "I1":
		sp.Composite = false
	case "I2":
		if !sp.Exclusive {
			return fmt.Errorf("model: I2 of already-shared %s.%s", class, attr)
		}
		sp.Exclusive = false
	case "I3":
		if !sp.Dependent {
			return fmt.Errorf("model: I3 of already-independent %s.%s", class, attr)
		}
		sp.Dependent = false
	case "I4":
		if sp.Dependent {
			return fmt.Errorf("model: I4 of already-dependent %s.%s", class, attr)
		}
		sp.Dependent = true
	default:
		return fmt.Errorf("model: unknown change %q", change)
	}
	for _, p := range m.instancesOf(class) {
		for _, childID := range p.Refs[attr] {
			child := m.objs[childID]
			if child == nil {
				continue
			}
			if change == "I1" {
				child.removeRev(p.ID)
			} else {
				child.setRevFlags(p.ID, sp.Dependent, sp.Exclusive)
			}
		}
	}
	return nil
}

func (o *modelObj) setRevFlags(parent uid.UID, dep, excl bool) {
	if i := o.findRev(parent); i >= 0 {
		o.Rev[i].Dependent = dep
		o.Rev[i].Exclusive = excl
	}
}

// makeComposite mirrors Engine.MakeComposite (D1/D2): collect every link
// through attr, verify each (dangles reject; D1 additionally rejects any
// existing composite parent and duplicate referencing; D2 rejects
// exclusive parents), then update the spec and insert reverse refs.
func (m *Model) makeComposite(class, attr string, exclusive, dependent bool) error {
	sp := m.spec(class, attr)
	if sp == nil {
		return fmt.Errorf("model: no attr %s.%s", class, attr)
	}
	if sp.Composite {
		return fmt.Errorf("model: %s.%s already composite", class, attr)
	}
	if sp.Domain == "" {
		return fmt.Errorf("model: %s.%s has a primitive domain", class, attr)
	}
	type link struct{ parent, child uid.UID }
	var links []link
	for _, p := range m.instancesOf(class) {
		for _, childID := range p.Refs[attr] {
			links = append(links, link{p.ID, childID})
		}
	}
	seen := map[uid.UID]bool{}
	for _, l := range links {
		child := m.objs[l.child]
		if child == nil {
			return fmt.Errorf("model: %v.%s dangles to %v", l.parent, attr, l.child)
		}
		if exclusive {
			if len(child.Rev) > 0 {
				return fmt.Errorf("model: D1 rejected, %v has a composite parent", l.child)
			}
			if seen[l.child] {
				return fmt.Errorf("model: D1 rejected, %v referenced more than once", l.child)
			}
			seen[l.child] = true
		} else if child.hasExclusiveRev() {
			return fmt.Errorf("model: D2 rejected, %v has an exclusive parent", l.child)
		}
	}
	sp.Composite, sp.Exclusive, sp.Dependent = true, exclusive, dependent
	for _, l := range links {
		m.objs[l.child].addRev(revRef{Parent: l.parent, Dependent: dependent, Exclusive: exclusive})
	}
	return nil
}

// makeExclusive mirrors Engine.MakeExclusive (D3): every child referenced
// through attr must have at most one composite parent (dangles are
// skipped); then the X flag is set in those children's reverse refs.
func (m *Model) makeExclusive(class, attr string) error {
	sp := m.spec(class, attr)
	if sp == nil {
		return fmt.Errorf("model: no attr %s.%s", class, attr)
	}
	if !sp.Composite || sp.Exclusive {
		return fmt.Errorf("model: D3 requires a shared composite %s.%s", class, attr)
	}
	var children []*modelObj
	seen := map[uid.UID]bool{}
	for _, p := range m.instancesOf(class) {
		for _, childID := range p.Refs[attr] {
			child := m.objs[childID]
			if child == nil {
				continue
			}
			if len(child.Rev) > 1 {
				return fmt.Errorf("model: D3 rejected, %v has %d composite parents", childID, len(child.Rev))
			}
			if !seen[childID] {
				seen[childID] = true
				children = append(children, child)
			}
		}
	}
	sp.Exclusive = true
	for _, child := range children {
		for i := range child.Rev {
			child.Rev[i].Exclusive = true
		}
	}
	return nil
}
