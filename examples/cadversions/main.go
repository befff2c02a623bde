// CAD versions: a mechanical-CAD assembly — the application domain the
// paper repeatedly motivates ("including some mechanical CAD
// applications") — combining a physical part hierarchy with the version
// model of §5.
//
// A robot-arm design evolves: the designer derives new versions of the
// gripper, while the arm assembly binds to the gripper DYNAMICALLY (via
// the generic instance), so it always picks up the default version; a
// released arm version binds STATICALLY to a frozen gripper version.
//
// Run: go run ./examples/cadversions
package main

import (
	"fmt"
	"log"

	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/value"
)

func main() {
	d, err := db.Open(db.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	for _, def := range []schema.ClassDef{
		{Name: "Gripper", Versionable: true, Attributes: []schema.AttrSpec{
			schema.NewAttr("Fingers", schema.IntDomain),
			schema.NewAttr("MaxLoadKg", schema.RealDomain),
		}},
		{Name: "Arm", Versionable: true, Attributes: []schema.AttrSpec{
			schema.NewAttr("Name", schema.StringDomain),
			// Independent exclusive: an arm owns its gripper design slot,
			// but the gripper design outlives any one arm revision.
			schema.NewCompositeAttr("EndEffector", "Gripper").WithDependent(false),
		}},
	} {
		if _, err := d.DefineClass(def); err != nil {
			log.Fatal(err)
		}
	}
	vm := d.Versions()
	// Each version statement writes through a transaction of its own, as
	// it does over the wire.
	must := func(fn func(t *txn.Txn) error) {
		if err := d.Run(fn); err != nil {
			log.Fatal(err)
		}
	}

	// v0 of the gripper.
	var gGrip, grip0 uid.UID
	must(func(t *txn.Txn) (err error) {
		gGrip, grip0, err = vm.CreateVersionable(t, "Gripper", map[string]value.Value{
			"Fingers": value.Int(2), "MaxLoadKg": value.Real(1.5),
		})
		return err
	})
	fmt.Printf("gripper generic %v, v0 %v (2 fingers, 1.5 kg)\n", gGrip, grip0)

	// The arm binds DYNAMICALLY: its reference targets the generic.
	var arm0 uid.UID
	must(func(t *txn.Txn) (err error) {
		_, arm0, err = vm.CreateVersionable(t, "Arm", map[string]value.Value{
			"Name": value.Str("arm-A"),
		})
		return err
	})
	must(func(t *txn.Txn) error { return vm.Attach(t, arm0, "EndEffector", gGrip) })
	resolve := func(armV uid.UID) uid.UID {
		o, _ := d.Get(armV)
		ref, _ := o.Get("EndEffector").AsRef()
		r, err := vm.Resolve(ref)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	fmt.Printf("arm v0 dynamically binds EndEffector -> resolves to %v\n", resolve(arm0))

	// Design iteration: derive gripper v1 (3 fingers) and v2 (higher load).
	var grip1, grip2 uid.UID
	must(func(t *txn.Txn) (err error) { grip1, err = vm.Derive(t, grip0); return err })
	d.Set(grip1, "Fingers", value.Int(3))
	must(func(t *txn.Txn) (err error) { grip2, err = vm.Derive(t, grip1); return err })
	d.Set(grip2, "MaxLoadKg", value.Real(4.0))
	fmt.Printf("derived gripper v1 %v and v2 %v; derivation hierarchy:\n", grip1, grip2)
	info, _ := vm.Info(gGrip)
	for _, v := range info.Versions {
		fmt.Printf("  %v derived-from %v (ts %d)\n", v, info.DerivedFrom[v], info.Stamp[v])
	}

	// Dynamic binding now resolves to the newest version automatically.
	fmt.Printf("arm v0 now resolves to %v (system default = newest)\n", resolve(arm0))

	// Engineering pins the default to the reviewed v1.
	vm.SetDefault(gGrip, grip1)
	fmt.Printf("after set-default v1: arm resolves to %v\n", resolve(arm0))

	// Release: derive arm v1 and freeze it on a specific gripper version
	// (static binding). Deriving rewrote the independent exclusive
	// reference to the generic (Figure 1); rebind statically.
	var arm1 uid.UID
	must(func(t *txn.Txn) (err error) { arm1, err = vm.Derive(t, arm0); return err })
	armObj, _ := d.Get(arm1)
	if ref, ok := armObj.Get("EndEffector").AsRef(); ok {
		must(func(t *txn.Txn) error { return vm.Detach(t, arm1, "EndEffector", ref) })
	}
	must(func(t *txn.Txn) error { return vm.Attach(t, arm1, "EndEffector", grip1) })
	fmt.Printf("arm v1 statically bound to gripper %v (frozen for release)\n", resolve(arm1))

	// Later design work moves the default; the release stays frozen.
	vm.SetDefault(gGrip, uid.Nil) // back to newest
	fmt.Printf("default moves on: arm v0 -> %v, released arm v1 -> %v\n",
		resolve(arm0), resolve(arm1))

	// Rule CV-2X at work: a second arm hierarchy cannot exclusively grab
	// the same generic gripper.
	var armB uid.UID
	must(func(t *txn.Txn) (err error) {
		_, armB, err = vm.CreateVersionable(t, "Arm", map[string]value.Value{"Name": value.Str("arm-B")})
		return err
	})
	err = d.Run(func(t *txn.Txn) error { return vm.Attach(t, armB, "EndEffector", gGrip) })
	fmt.Printf("arm-B exclusively referencing the same generic gripper: rejected = %v\n", err != nil)
}
