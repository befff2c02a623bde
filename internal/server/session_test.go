package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/sexpr"
)

// countConn counts the Write calls a session makes on its connection.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipeServer returns an unstarted server over a fresh in-memory database
// holding one Widget (ref is its #class:serial), and attaches sessions
// to in-memory pipes through admit.
func pipeServer(t *testing.T) (d *db.DB, srv *Server, ref string) {
	t.Helper()
	d, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := sexpr.NewInterp(d)
	if _, err := in.EvalString(`(make-class 'Widget :attributes '((Tag :domain integer)))`); err != nil {
		t.Fatal(err)
	}
	v, err := in.EvalString(`(make Widget :Tag 1)`)
	if err != nil {
		t.Fatal(err)
	}
	in.Close()
	srv = New(d, Config{})
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return d, srv, v.String()
}

// attach starts a session on one end of a pipe and returns the other
// end, and the counting wrapper the session writes through.
func attach(t *testing.T, srv *Server) (net.Conn, *countConn) {
	t.Helper()
	client, server := net.Pipe()
	cc := &countConn{Conn: server}
	if !srv.admit(cc) {
		t.Fatal("session refused")
	}
	t.Cleanup(func() { client.Close() })
	return client, cc
}

func roundTrip(t *testing.T, c net.Conn, program string) string {
	t.Helper()
	if err := WriteFrame(c, []byte(program)); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(c, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return string(payload)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestReplyIsOneWrite(t *testing.T) {
	_, srv, ref := pipeServer(t)
	c, cc := attach(t, srv)
	big := strings.Repeat("x", 2*maxKeptBuffer)
	for i, step := range []struct{ program, reply string }{
		{"(get " + ref + " Tag)", "+1"},
		{"'(1 2.5 \"q\\\"uote\" " + ref + ")", `+[1 2.5 "q\"uote" ` + ref + "]"},
		{"(no-such-message)", "-"},
		{`(define big "` + big + `")`, `+"` + big + `"`}, // request and reply over the kept cap
		{"big", `+"` + big + `"`},
		{"(get " + ref + " Tag)", "+1"},
	} {
		got := roundTrip(t, c, step.program)
		if !strings.HasPrefix(got, step.reply) || step.reply != "-" && got != step.reply {
			t.Fatalf("reply %d = %.80q, want %.80q", i, got, step.reply)
		}
		if n := cc.writes.Load(); n != int64(i+1) {
			t.Fatalf("after %d replies the session made %d writes, want one per reply", i+1, n)
		}
	}
}

// TestBufferedRequestDroppedOnDrain pins what a drain does to a request
// that is already in the session's read buffer when Shutdown sets the
// read deadline: it is dropped, like one still in the socket, so only
// the evaluation in flight finishes. Here the dropped request is a
// commit, and its transaction is aborted instead.
func TestBufferedRequestDroppedOnDrain(t *testing.T) {
	d, srv, ref := pipeServer(t)
	a, _ := attach(t, srv)
	b, _ := attach(t, srv)
	roundTrip(t, a, "(begin)")
	roundTrip(t, a, "(set "+ref+" Tag 2)") // A holds the X lock and goes idle
	roundTrip(t, b, "(begin)")

	// Both of B's requests leave in one write, and the pipe hands them
	// to the session's buffered reader in one read.
	waits := d.Observability().Counter("lock_wait_total")
	w0 := waits.Load()
	var two bytes.Buffer
	WriteFrame(&two, []byte("(set "+ref+" Tag 3)"))
	WriteFrame(&two, []byte("(commit)"))
	if _, err := b.Write(two.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "B's set to wait behind A's lock", func() bool { return waits.Load() > w0 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()
	if got, err := ReadFrame(b, 1<<20); err != nil || string(got) != "+3" {
		t.Fatalf("in-flight reply during drain: %q, %v (want +3)", got, err)
	}
	if got, err := ReadFrame(b, 1<<20); err != io.EOF {
		t.Fatalf("buffered commit during drain: reply %q, err %v; want it dropped (EOF)", got, err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	in := sexpr.NewInterp(d)
	defer in.Close()
	if v, err := in.EvalString("(get " + ref + " Tag)"); err != nil || v.String() != "1" {
		t.Fatalf("Tag after drain = %v, %v; want 1 (both transactions aborted)", v, err)
	}
}

// TestLyingPrefixEndsSessionQuietly sends a length prefix the stream
// never backs, then hangs up: the session ends without a reply.
func TestLyingPrefixEndsSessionQuietly(t *testing.T) {
	_, srv, _ := pipeServer(t)
	c, cc := attach(t, srv)
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], DefaultMaxFrame)
	if _, err := c.Write(append(hdr[:], "(get"...)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitUntil(t, "session teardown", func() bool { return srv.ActiveSessions() == 0 })
	if n := cc.writes.Load(); n != 0 {
		t.Fatalf("session wrote %d times after a truncated frame, want 0", n)
	}
}

func TestReadFrameLyingPrefixAllocatesWhatArrives(t *testing.T) {
	const arrived = 1000
	stream := make([]byte, frameHeader+arrived)
	binary.BigEndian.PutUint32(stream, DefaultMaxFrame) // claims 4 MiB
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadFrame(bytes.NewReader(stream), DefaultMaxFrame); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	// readFrame's bound, plus the reader and slack for the runtime.
	bound := uint64(2*frameChunk+4*arrived) + 512
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > bound {
		t.Fatalf("a lying 4 MiB prefix over %d bytes allocated %d B per read, bound %d", arrived, per, bound)
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	WriteFrame(&stream, []byte("(components-of #1:1)"))
	r := bytes.NewReader(stream.Bytes())
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(stream.Bytes())
		got, err := readFrame(r, DefaultMaxFrame, buf)
		if err != nil || string(got) != "(components-of #1:1)" {
			t.Fatalf("readFrame = %q, %v", got, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("readFrame into a large enough buffer allocated %.0f times, want 0", allocs)
	}
}
