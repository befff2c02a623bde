package db

import (
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/value"
)

// DefineClass adds a class (the make-class message, §2.3). The catalog
// is made durable at once (syncMeta) so that WAL replay never sees
// objects of unknown classes.
func (d *DB) DefineClass(def schema.ClassDef) (*schema.Class, error) {
	cl, err := d.cat.DefineClass(def)
	if err != nil {
		return nil, err
	}
	if err := d.syncMeta(); err != nil {
		return nil, err
	}
	return cl, nil
}

// evolve runs one schema statement (§4) as its own transaction: schema
// admission to the classes scope names, and to their instances if the
// change rewrites any (txn.Txn.Evolve), then change under the
// transaction's tag, then the commit. The catalog (with its
// deferred-evolution op logs and change counter) is saved beside the
// log, not in it, so syncMeta then makes the rewrite and the catalog
// durable, in that order. Every schema statement of the facade and the
// wire comes through here.
func (d *DB) evolve(scope func() []string, rewrites bool, change func(tx core.TxnID) error) error {
	if err := d.Run(func(t *txn.Txn) error { return t.Evolve(scope, rewrites, change) }); err != nil {
		return err
	}
	return d.syncMeta()
}

// scope names the classes a schema change on class.attr locks, each with
// its subclasses: the class defining attr (class itself when attr is
// empty) and the domain class of attr, or of every attribute of class when
// attr is empty, since a rewrite of a reference reaches the instances of
// its domain.
func (d *DB) scope(class, attr string) func() []string {
	return func() []string {
		owner, _ := d.cat.DefiningClass(class, attr)
		out := []string{owner}
		specs, _ := d.cat.Attributes(class)
		for _, s := range specs {
			if s.Domain.Kind == schema.DomainClass && (attr == "" || s.Name == attr) {
				out = append(out, s.Domain.Class)
			}
		}
		return out
	}
}

// RenameAttribute renames class.attr and the values its instances hold.
func (d *DB) RenameAttribute(class, attr, newName string) error {
	return d.evolve(d.scope(class, attr), true, func(tx core.TxnID) error {
		return d.engine.RenameAttribute(tx, class, attr, newName)
	})
}

// DropAttribute drops class.attr (§4.1 change 1) and returns the objects
// its Deletion-Rule cascade deleted.
func (d *DB) DropAttribute(class, attr string) (deleted []uid.UID, err error) {
	err = d.evolve(d.scope(class, attr), true, func(tx core.TxnID) (err error) {
		deleted, err = d.engine.DropAttribute(tx, class, attr)
		return err
	})
	return deleted, err
}

// AddSuperclass adds super to class's superclasses (§4.1 change 3).
func (d *DB) AddSuperclass(class, super string) error {
	return d.evolve(d.scope(class, ""), false, func(core.TxnID) error {
		return d.cat.AddSuperclass(class, super)
	})
}

// RemoveSuperclass removes super from class's superclasses (§4.1 change
// 3) and returns the objects deleted with the attributes class lost.
func (d *DB) RemoveSuperclass(class, super string) (deleted []uid.UID, err error) {
	err = d.evolve(d.scope(class, ""), true, func(tx core.TxnID) (err error) {
		deleted, err = d.engine.RemoveSuperclass(tx, class, super)
		return err
	})
	return deleted, err
}

// DropClass deletes every instance of class and then the class (§4.1
// change 4), and returns the objects deleted.
func (d *DB) DropClass(class string) (deleted []uid.UID, err error) {
	err = d.evolve(d.scope(class, ""), true, func(tx core.TxnID) (err error) {
		deleted, err = d.engine.DropClass(tx, class)
		return err
	})
	return deleted, err
}

// ChangeAttributeType applies a state-independent reference-type change
// (I1–I4, §4.3), immediately or deferred.
func (d *DB) ChangeAttributeType(class, attr string, kind schema.ChangeKind, deferred bool) error {
	return d.evolve(d.scope(class, attr), !deferred, func(tx core.TxnID) error {
		return d.engine.ChangeAttributeType(tx, class, attr, kind, deferred)
	})
}

// MakeComposite upgrades a weak reference attribute to a composite one
// (D1/D2, §4.3 — state-dependent, always immediate).
func (d *DB) MakeComposite(class, attr string, exclusive, dependent bool) error {
	return d.evolve(d.scope(class, attr), true, func(tx core.TxnID) error {
		return d.engine.MakeComposite(tx, class, attr, exclusive, dependent)
	})
}

// MakeExclusive upgrades a shared composite attribute to exclusive (D3,
// §4.3 — state-dependent, always immediate).
func (d *DB) MakeExclusive(class, attr string) error {
	return d.evolve(d.scope(class, attr), true, func(tx core.TxnID) error {
		return d.engine.MakeExclusive(tx, class, attr)
	})
}

// Make creates an instance (the make message, §2.3): attribute values
// plus optional (parent, attribute) pairs placing the new instance into
// existing composite objects. Make and the other writes below each run
// as a one-statement transaction (Txn), with its §7 admission, log group
// and commit.
func (d *DB) Make(class string, attrs map[string]value.Value, parents ...core.ParentSpec) (*object.Object, error) {
	var o *object.Object
	err := d.Run(func(t *txn.Txn) (err error) {
		o, err = t.New(class, attrs, parents...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return o, nil
}

// Get returns the committed object (read-only): a write of an open
// transaction is invisible until that transaction commits.
func (d *DB) Get(id uid.UID) (*object.Object, error) { return d.engine.Get(id) }

// Set assigns an attribute value with full composite semantics.
func (d *DB) Set(id uid.UID, attr string, v value.Value) error {
	return d.Run(func(t *txn.Txn) error { return t.WriteAttr(id, attr, v) })
}

// Attach makes child a component of parent through attr.
func (d *DB) Attach(parent uid.UID, attr string, child uid.UID) error {
	return d.Run(func(t *txn.Txn) error { return t.Attach(parent, attr, child) })
}

// Detach removes the parent-child reference.
func (d *DB) Detach(parent uid.UID, attr string, child uid.UID) error {
	return d.Run(func(t *txn.Txn) error { return t.Detach(parent, attr, child) })
}

// Delete removes the object per the Deletion Rule and returns the
// casualty list.
func (d *DB) Delete(id uid.UID) ([]uid.UID, error) {
	var out []uid.UID
	err := d.Run(func(t *txn.Txn) (err error) {
		out, err = t.Delete(id)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ComponentsOf implements (components-of ...), §3.1.
func (d *DB) ComponentsOf(id uid.UID, q core.QueryOpts) ([]uid.UID, error) {
	return d.engine.ComponentsOf(id, q)
}

// ParentsOf implements (parents-of ...), §3.1.
func (d *DB) ParentsOf(id uid.UID, q core.QueryOpts) ([]uid.UID, error) {
	return d.engine.ParentsOf(id, q)
}

// AncestorsOf implements (ancestors-of ...), §3.1.
func (d *DB) AncestorsOf(id uid.UID, q core.QueryOpts) ([]uid.UID, error) {
	return d.engine.AncestorsOf(id, q)
}

// ComponentOf implements (component-of Object1 Object2), §3.2.
func (d *DB) ComponentOf(a, b uid.UID) (bool, error) { return d.engine.ComponentOf(a, b) }

// ChildOf implements (child-of Object1 Object2), §3.2.
func (d *DB) ChildOf(a, b uid.UID) (bool, error) { return d.engine.ChildOf(a, b) }

// ExclusiveComponentOf implements (exclusive-component-of ...), §3.2.
func (d *DB) ExclusiveComponentOf(a, b uid.UID) (bool, error) {
	return d.engine.ExclusiveComponentOf(a, b)
}

// SharedComponentOf implements (shared-component-of ...), §3.2.
func (d *DB) SharedComponentOf(a, b uid.UID) (bool, error) {
	return d.engine.SharedComponentOf(a, b)
}

// RootsOf returns the roots of the composite objects containing id.
func (d *DB) RootsOf(id uid.UID) ([]uid.UID, error) { return d.engine.RootsOf(id) }

// BeginSnapshot starts a read-only MVCC snapshot: a lock-free view of
// the committed state at the current commit boundary. Queries on the
// handle never take the engine latch or any §7 lock, so they cannot
// stall writers (and writers cannot change what the snapshot sees).
// Release the handle when done — it pins version garbage collection.
func (d *DB) BeginSnapshot() *core.Snapshot { return d.txm.BeginSnapshot() }

// Begin starts a transaction.
func (d *DB) Begin() *txn.Txn { return d.txm.Begin() }

// Run executes fn transactionally with deadlock retry.
func (d *DB) Run(fn func(*txn.Txn) error) error { return d.txm.Run(fn) }
