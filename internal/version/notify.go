package version

import (
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/uid"
)

// The version manager also participates in the engine's write-through
// hook chain so that deletions performed directly through the engine
// (bypassing DeleteVersion/DeleteGeneric), and the evictions of an
// aborted transaction's creations, at least keep the bookkeeping
// consistent: the deleted object stops being a version or generic
// instance. The CV-4X cascades (last version deletes the generic, generic
// deletion recurses) require going through DeleteVersion/DeleteGeneric,
// which the db facade's API does. What a transaction's deletes drop is
// kept until it ends, for its abort to put back (OnCommit/OnAbort, which
// the db facade calls at the transaction boundary).

// OnWrite implements core.Hook (no-op: writes don't move version state).
func (m *Manager) OnWrite(_ core.TxnID, _ *object.Object, _ uid.UID) error { return nil }

// OnDelete implements core.Hook: drop bookkeeping for deleted version or
// generic instances. It must not call back into the engine (the engine
// latch is held during hook dispatch).
func (m *Manager) OnDelete(tx core.TxnID, id uid.UID) error {
	m.forget(tx, id)
	return nil
}

// undo puts back the bookkeeping forget dropped for id.
type undo struct {
	id  uid.UID
	put func()
}

// OnCommit ends tx: what it dropped stays dropped.
func (m *Manager) OnCommit(tx core.TxnID) {
	m.mu.Lock()
	delete(m.undo, tx)
	m.mu.Unlock()
}

// OnAbort puts back, newest first, what tx dropped of each object the
// engine's rollback restored; call it after the rollback. An object tx
// created is gone by then, and what tx dropped of it stays dropped.
func (m *Manager) OnAbort(tx core.TxnID) {
	m.mu.Lock()
	log := m.undo[tx]
	delete(m.undo, tx)
	m.mu.Unlock()
	for i := len(log) - 1; i >= 0; i-- {
		if m.e.Exists(log[i].id) {
			m.mu.Lock()
			log[i].put()
			m.mu.Unlock()
		}
	}
}

// forget drops the bookkeeping of each deleted version or generic
// instance among ids, keeping an undo for tx (none for 0, engine-direct).
func (m *Manager) forget(tx core.TxnID, ids ...uid.UID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		m.forgetLocked(tx, id)
	}
}

func (m *Manager) forgetLocked(tx core.TxnID, id uid.UID) {
	var put func()
	if g, ok := m.versionOf[id]; ok {
		delete(m.versionOf, id)
		put = func() { m.versionOf[id] = g }
		if gen := m.generics[g]; gen != nil {
			reinsert := gen.remove(id)
			put = func() { m.versionOf[id] = g; reinsert() }
		}
	} else if gen, ok := m.generics[id]; ok {
		delete(m.generics, id)
		put = func() { m.generics[id] = gen }
	}
	if put != nil && tx != 0 {
		m.undo[tx] = append(m.undo[tx], undo{id, put})
	}
}

// txOf returns the transaction w writes for: 0 for an engine-direct
// writer.
func txOf(w Writer) core.TxnID {
	if t, ok := w.(interface{ TxnID() core.TxnID }); ok {
		return t.TxnID()
	}
	return 0
}
