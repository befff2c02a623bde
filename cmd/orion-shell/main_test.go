package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/schema"
)

func TestBalanced(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"", true},
		{"(a b)", true},
		{"(a (b c))", true},
		{"(a (b c)", false},
		{"(a))", true}, // over-closed still submits (the evaluator errors)
		{`(a "(((" b)`, true},
		{`(a "unclosed`, false},
		{"(a ; comment with ( paren\n)", true},
		{"; just a comment (", true},
		{`(s "esc \" quote")`, true},
		{"(multi\nline\n(ok))", true},
	}
	for _, c := range cases {
		if got := balanced(c.src); got != c.want {
			t.Errorf("balanced(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestMetaCommands(t *testing.T) {
	d, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, handled := metaCommand(d, "(make-class 'C)"); handled {
		t.Fatal("s-expression treated as a meta-command")
	}
	if out, handled := metaCommand(d, "trace on"); !handled || out != "tracing on" {
		t.Fatalf("trace on: %q, %v", out, handled)
	}
	if !d.Observability().Recorder().Active() {
		t.Fatal("tracer not activated")
	}

	// A traced transaction shows up in both the dump and the stats.
	tx := d.Txns().Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	out, handled := metaCommand(d, "trace dump")
	if !handled || !strings.Contains(out, "txn.begin") || !strings.Contains(out, "txn.commit") {
		t.Fatalf("trace dump: %q", out)
	}
	if out, _ := metaCommand(d, "trace off"); out != "tracing off" {
		t.Fatalf("trace off: %q", out)
	}
	if d.Observability().Recorder().Active() {
		t.Fatal("tracer still active")
	}
	if out, _ := metaCommand(d, "trace clear"); out != "trace cleared" {
		t.Fatalf("trace clear: %q", out)
	}
	if out, _ := metaCommand(d, "trace dump"); out != "trace: no events" {
		t.Fatalf("dump after clear: %q", out)
	}
	if out, _ := metaCommand(d, "trace sideways"); !strings.HasPrefix(out, "usage:") {
		t.Fatalf("bad subcommand: %q", out)
	}

	if out, handled := metaCommand(d, "stats"); !handled || !strings.Contains(out, "txn_commit_total 1") {
		t.Fatalf("stats: %q", out)
	}

	if out, _ := metaCommand(d, "slow 1ns"); !strings.Contains(out, "threshold 1ns") {
		t.Fatalf("slow 1ns: %q", out)
	}
	// One op over the threshold shows in both the slow and the flight view.
	d.Observability().Recorder().SetWriter(io.Discard) // the breach dumps the ring
	if _, err := d.DefineClass(schema.ClassDef{Name: "C"}); err != nil {
		t.Fatal(err)
	}
	o, err := d.Make("C", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(o.UID()); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"slow dump", "flight dump"} {
		if out, _ := metaCommand(d, cmd); !strings.Contains(out, "core.delete "+o.UID().String()) {
			t.Fatalf("%s lacks the delete: %q", cmd, out)
		}
	}
	if out, _ := metaCommand(d, "slow off"); out != "slow log off" {
		t.Fatalf("slow off: %q", out)
	}
	if out, _ := metaCommand(d, "slow dump"); out != "slow: no entries" {
		t.Fatalf("slow dump: %q", out)
	}
	if out, _ := metaCommand(d, "slow nonsense"); !strings.HasPrefix(out, "usage:") {
		t.Fatalf("bad slow arg: %q", out)
	}
}
