package version

import (
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/uid"
)

// The version manager hangs on both engine hooks. As the write-through
// hook it sees each deletion as a transaction makes it, so the deleted
// version or generic instance stops being one for that transaction at
// once, also when the deletion bypassed DeleteVersion/DeleteGeneric. As
// the publish hook it sees what commits: a published creation makes its
// entry everyone's, a published deletion drops its entry for everyone.
// OnAbort drops what an aborted transaction added. The CV-4X cascades
// (last version deletes the generic, generic deletion recurses) require
// going through DeleteVersion/DeleteGeneric, which the db facade's API
// does.

// mark records a bookkeeping entry an open transaction added (drop
// false) or dropped: until the change is published or aborted, only
// that transaction sees it.
type mark struct {
	tx   core.TxnID
	drop bool
}

// OnWrite implements core.Hook. Published (tx 0), a creation's entry
// becomes everyone's; no other write moves version state.
func (m *Manager) OnWrite(tx core.TxnID, o *object.Object) error {
	if tx == 0 {
		m.mu.Lock()
		if mk, ok := m.marks[o.UID()]; ok && !mk.drop {
			delete(m.marks, o.UID())
		}
		m.mu.Unlock()
	}
	return nil
}

// OnDelete implements core.Hook: the deleted version or generic instance
// stops being one, for tx until its deletion is published and then for
// everyone. It must not call back into the engine (the engine latch is
// held during hook dispatch).
func (m *Manager) OnDelete(tx core.TxnID, id uid.UID) error {
	m.forget(tx, id)
	return nil
}

// OnAbort ends tx: the entries it added go, the ones it dropped stay.
func (m *Manager) OnAbort(tx core.TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, mk := range m.marks {
		if mk.tx == tx {
			delete(m.marks, id)
			if !mk.drop {
				m.drop(id)
			}
		}
	}
}

// sees reports whether b sees the entry of id: one an open transaction
// added is its own, one it dropped is gone for it alone. Caller holds
// m.mu.
func (b Books) sees(id uid.UID) bool {
	mk, ok := b.m.marks[id]
	return !ok || (mk.tx == b.tx) != mk.drop
}

// added marks the new entry of id as tx's own (nothing for tx 0,
// engine-direct). Caller holds m.mu.
func (m *Manager) added(tx core.TxnID, id uid.UID) {
	if tx != 0 {
		m.marks[id] = mark{tx: tx}
	}
}

// forget drops the bookkeeping of each deleted version or generic
// instance among ids that tx sees: at once for tx 0 (engine-direct, or a
// publication) and for an entry tx added itself, else by a drop mark.
func (m *Manager) forget(tx core.TxnID, ids ...uid.UID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		m.forgetLocked(tx, id)
	}
}

func (m *Manager) forgetLocked(tx core.TxnID, id uid.UID) {
	_, isGen := m.generics[id]
	if _, isVer := m.versionOf[id]; !isVer && !isGen || !m.TxBooks(tx).sees(id) {
		return
	}
	if _, marked := m.marks[id]; tx != 0 && !marked {
		m.marks[id] = mark{tx: tx, drop: true}
		return
	}
	delete(m.marks, id)
	m.drop(id)
}

// drop removes the entry of id for every reader. Caller holds m.mu.
func (m *Manager) drop(id uid.UID) {
	if g, ok := m.versionOf[id]; ok {
		delete(m.versionOf, id)
		if gen := m.generics[g]; gen != nil {
			gen.remove(id)
		}
	}
	delete(m.generics, id)
}

// admit takes a transaction writer's §7 admission to the units of ids,
// so what the bookkeeping says of them holds until it ends; an
// engine-direct writer takes none.
func admit(w Writer, write bool, ids ...uid.UID) error {
	if t, ok := w.(interface{ LockUnits(bool, ...uid.UID) error }); ok {
		return t.LockUnits(write, ids...)
	}
	return nil
}

// view returns what w reads: its transaction's view, or the committed
// objects for an engine-direct writer.
func (m *Manager) view(w Writer) core.View { return m.e.TxView(txOf(w)) }

// txOf returns the transaction w writes for: 0 for an engine-direct
// writer.
func txOf(w Writer) core.TxnID {
	if t, ok := w.(interface{ TxnID() core.TxnID }); ok {
		return t.TxnID()
	}
	return 0
}
