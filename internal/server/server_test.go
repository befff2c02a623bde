package server_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/lock"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sexpr"
)

const testSchema = `
(make-class 'Part :attributes '((Tag :domain integer)))
(make-class 'Widget :attributes '((Tag :domain integer)
                                  (Parts :domain (set-of Part) :composite true)))
`

// newServer boots an in-memory database with the test schema behind a
// TCP server on an ephemeral port.
func newServer(t *testing.T, cfg server.Config) (*db.DB, *server.Server) {
	t.Helper()
	d, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	srv := server.New(d, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	c := dial(t, srv)
	mustDo(t, c, testSchema)
	c.Close()
	// Don't hand the server over until the schema session is gone, or a
	// MaxConns=1 test would race against its teardown.
	waitFor(t, "schema session teardown", func() bool { return srv.ActiveSessions() == 0 })
	return d, srv
}

func dial(t *testing.T, srv *server.Server) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustDo(t *testing.T, c *client.Client, program string) string {
	t.Helper()
	out, err := c.Do(program)
	if err != nil {
		t.Fatalf("do %q: %v", program, err)
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func txID(t *testing.T, reply string) lock.TxID {
	t.Helper()
	n, err := strconv.ParseUint(reply, 10, 64)
	if err != nil {
		t.Fatalf("(begin) reply %q is not a txn id", reply)
	}
	return lock.TxID(n)
}

func TestSessionsAreIsolated(t *testing.T) {
	_, srv := newServer(t, server.Config{})
	c1, c2 := dial(t, srv), dial(t, srv)
	mustDo(t, c1, `(define x 41)`)
	if out := mustDo(t, c1, "x"); out != "41" {
		t.Fatalf("c1 x = %q", out)
	}
	// (define) bindings are session state: c2 must not see c1's.
	if _, err := c2.Do("x"); err == nil {
		t.Fatal("c2 resolved c1's binding")
	}
	// But committed data is shared.
	ref := mustDo(t, c1, "(make Widget :Tag 7)")
	if out := mustDo(t, c2, "(get "+ref+" Tag)"); out != "7" {
		t.Fatalf("c2 read Tag %q, want 7", out)
	}
}

func TestTxnCommitAndAbortOverWire(t *testing.T) {
	_, srv := newServer(t, server.Config{})
	c1, c2 := dial(t, srv), dial(t, srv)
	ref := mustDo(t, c1, "(make Widget :Tag 1)")

	mustDo(t, c1, "(begin)")
	mustDo(t, c1, "(set "+ref+" Tag 2)")
	if out := mustDo(t, c1, "(commit)"); out != "true" {
		t.Fatalf("(commit) = %q", out)
	}
	if out := mustDo(t, c2, "(get "+ref+" Tag)"); out != "2" {
		t.Fatalf("after commit Tag = %q, want 2", out)
	}

	mustDo(t, c1, "(begin)")
	mustDo(t, c1, "(set "+ref+" Tag 3)")
	mustDo(t, c1, "(abort)")
	if out := mustDo(t, c2, "(get "+ref+" Tag)"); out != "2" {
		t.Fatalf("after abort Tag = %q, want 2", out)
	}
}

func TestPipelinedRequests(t *testing.T) {
	_, srv := newServer(t, server.Config{})
	c := dial(t, srv)
	for i := 0; i < 10; i++ {
		if err := c.Send(fmt.Sprintf("(define v%d %d) v%d", i, i*i, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		out, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if want := strconv.Itoa(i * i); out != want {
			t.Fatalf("reply %d = %q, want %q (order broken?)", i, out, want)
		}
	}
}

func TestMaxConnsReturnsTypedBusy(t *testing.T) {
	d, srv := newServer(t, server.Config{MaxConns: 1})
	c1 := dial(t, srv)
	mustDo(t, c1, "(classes)") // round trip: c1 is admitted for sure
	c2 := dial(t, srv)
	_, err := c2.Do("(classes)")
	if !server.IsRemote(err, server.CodeBusy) {
		t.Fatalf("over-limit request: err = %v, want typed %s error", err, server.CodeBusy)
	}
	if n := d.Observability().Counter("server_conns_rejected_total").Load(); n == 0 {
		t.Fatal("rejected counter did not move")
	}
	// The slot frees on disconnect: a new connection gets in.
	c1.Close()
	waitFor(t, "session teardown", func() bool { return srv.ActiveSessions() == 0 })
	c3 := dial(t, srv)
	mustDo(t, c3, "(classes)")
}

func TestDisconnectAbortsTxnReleasesLocksAndGoroutines(t *testing.T) {
	d, srv := newServer(t, server.Config{})
	ref := func() string {
		c := dial(t, srv)
		defer c.Close()
		return mustDo(t, c, "(make Widget :Tag 1)")
	}()
	waitFor(t, "setup session teardown", func() bool { return srv.ActiveSessions() == 0 })

	locks := d.Txns().Locks()
	rel0 := d.Observability().Counter("lock_release_all_total").Load()
	goroutines0 := runtime.NumGoroutine()

	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	id := txID(t, mustDo(t, c, "(begin)"))
	mustDo(t, c, "(set "+ref+" Tag 9)")
	if n := locks.LockCount(id); n == 0 {
		t.Fatal("mid-transaction session should hold §7 locks")
	}

	// Abrupt disconnect: no (abort), no (commit), just a dead socket.
	c.Close()

	waitFor(t, "txn abort and lock release", func() bool {
		return srv.ActiveSessions() == 0 && locks.LockCount(id) == 0
	})
	if n := d.Observability().Counter("lock_release_all_total").Load(); n <= rel0 {
		t.Fatal("lock_release_all_total did not move on disconnect abort")
	}
	if n := d.Observability().Counter("server_disconnect_aborts_total").Load(); n == 0 {
		t.Fatal("server_disconnect_aborts_total did not move")
	}
	waitFor(t, "session goroutine exit", func() bool {
		return runtime.NumGoroutine() <= goroutines0
	})
}

func TestSlowReaderWriteTimeout(t *testing.T) {
	d, srv := newServer(t, server.Config{WriteTimeout: 150 * time.Millisecond})
	c := dial(t, srv)
	// Park a 512KB value in the session, then pipeline many requests for
	// it without ever reading a reply: the server's writes jam against
	// full socket buffers and the write deadline must cut the session
	// loose instead of parking its goroutine forever.
	big := strings.Repeat("x", 512<<10)
	mustDo(t, c, `(define big "`+big+`")`)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ {
			if err := c.Send("big"); err != nil {
				return // server hung up on us, as it should
			}
		}
	}()
	waitFor(t, "slow-reader teardown", func() bool { return srv.ActiveSessions() == 0 })
	if n := d.Observability().Counter("server_write_timeouts_total").Load(); n == 0 {
		t.Fatal("server_write_timeouts_total did not move")
	}
	c.Close()
	<-done
}

func TestDrainFinishesInFlightAbortsIdle(t *testing.T) {
	d, srv := newServer(t, server.Config{})
	a, b := dial(t, srv), dial(t, srv)
	ref := mustDo(t, a, "(make Widget :Tag 1)")

	// Session A holds the X lock and goes idle mid-transaction.
	idA := txID(t, mustDo(t, a, "(begin)"))
	mustDo(t, a, "(set "+ref+" Tag 2)")
	// Session B's write is in flight, blocked behind A's lock.
	idB := txID(t, mustDo(t, b, "(begin)"))
	if err := b.Send("(set " + ref + " Tag 3)"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let B's eval reach the lock wait

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain semantics: idle A was aborted (releasing its lock), which let
	// the in-flight B finish its evaluation and receive its reply.
	out, err := b.Recv()
	if err != nil || out != "3" {
		t.Fatalf("in-flight reply during drain: %q, %v (want 3, nil)", out, err)
	}
	locks := d.Txns().Locks()
	if n, m := locks.LockCount(idA), locks.LockCount(idB); n != 0 || m != 0 {
		t.Fatalf("locks leaked through drain: A=%d B=%d", n, m)
	}
	if srv.ActiveSessions() != 0 {
		t.Fatalf("%d sessions survived drain", srv.ActiveSessions())
	}
	// The listener is gone: no new connections.
	if c, err := net.DialTimeout("tcp", srv.Addr(), 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("listener still accepting after drain")
	}
	if n := d.Observability().Counter("server_drains_total").Load(); n != 1 {
		t.Fatalf("server_drains_total = %d, want 1", n)
	}
}

// TestDeadlockVictimCanBeginImmediately pins the eager-abort contract of
// the session layer: when the lock manager dooms a session's transaction
// as a deadlock victim, the session must detach the dead transaction the
// moment the verdict surfaces — not leave it dangling until the client
// sends an explicit (abort). Before the fix, the victim session's
// (txn-status) kept reporting the dead transaction and the (begin N)
// retry the deadlock reply itself prescribes failed with "transaction
// already open".
func TestDeadlockVictimCanBeginImmediately(t *testing.T) {
	d, srv := newServer(t, server.Config{})
	c1, c2 := dial(t, srv), dial(t, srv)
	w1, id2 := deadlockVictim(t, c1, c2)

	// The regression: the victim's transaction must already be detached.
	if out := mustDo(t, c2, "(txn-status)"); out != "nil" {
		t.Fatalf("(txn-status) after deadlock = %q, want nil", out)
	}
	if got := txID(t, mustDo(t, c2, fmt.Sprintf("(begin %d)", id2))); got != id2 {
		t.Fatalf("(begin %d) reopened as %d", id2, got)
	}
	// And its locks are gone: the retry can take the contested lock once
	// the survivor commits.
	mustDo(t, c1, "(commit)")
	mustDo(t, c2, "(set "+w1+" Tag 21)")
	if out := mustDo(t, c2, "(commit)"); out != "true" {
		t.Fatalf("(commit) after retry = %q", out)
	}
	locks := d.Txns().Locks()
	if n := locks.LockCount(lock.TxID(id2)); n != 0 {
		t.Fatalf("victim retry leaked %d locks", n)
	}
	if out := mustDo(t, c1, "(get "+w1+" Tag)"); out != "21" {
		t.Fatalf("retried write lost: Tag = %q, want 21", out)
	}
}

// TestDeadlockRetryCounted: the (begin N) a deadlock victim retries with
// is a deadlock retry, and txn_deadlock_retries_total counts it once.
func TestDeadlockRetryCounted(t *testing.T) {
	d, srv := newServer(t, server.Config{})
	c1, c2 := dial(t, srv), dial(t, srv)
	retries := d.Observability().Counter("txn_deadlock_retries_total")
	_, id2 := deadlockVictim(t, c1, c2)
	before := retries.Load()
	mustDo(t, c2, fmt.Sprintf("(begin %d)", id2))
	if n := retries.Load() - before; n != 1 {
		t.Fatalf("(begin %d) moved txn_deadlock_retries_total by %d, want 1", id2, n)
	}
	mustDo(t, c1, "(commit)")
	mustDo(t, c2, "(commit)")
}

// deadlockVictim makes c2's transaction the victim of a deadlock with
// c1's and returns the first widget and the victim's identity. c1's
// transaction survives, still open, holding X locks on both widgets.
func deadlockVictim(t *testing.T, c1, c2 *client.Client) (w1 string, id2 lock.TxID) {
	t.Helper()
	w1 = mustDo(t, c1, "(make Widget :Tag 1)")
	w2 := mustDo(t, c1, "(make Widget :Tag 2)")

	// c1 begins first, so c2's transaction is younger — the designated
	// victim once the cycle forms.
	id1 := txID(t, mustDo(t, c1, "(begin)"))
	id2 = txID(t, mustDo(t, c2, "(begin)"))
	if id2 <= id1 {
		t.Fatalf("txn ids not monotone: %d then %d", id1, id2)
	}
	mustDo(t, c1, "(set "+w1+" Tag 10)")
	mustDo(t, c2, "(set "+w2+" Tag 20)")

	// c2 blocks behind c1's X lock; c1's counter-request closes the cycle.
	// The victim (c2) is woken from its own lock wait with the deadlock
	// verdict, and the survivor's write proceeds.
	if err := c2.Send("(set " + w1 + " Tag 21)"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let c2's eval reach the lock wait
	mustDo(t, c1, "(set "+w2+" Tag 11)")

	_, err := c2.Recv()
	if !server.IsRemote(err, sexpr.CodeDeadlock) {
		t.Fatalf("victim reply = %v, want typed %s error", err, sexpr.CodeDeadlock)
	}
	return w1, id2
}

// TestSnapshotZeroLocksOverWire pins the §7/§MVCC split across the wire:
// a (snapshot begin) session scanning a composite hierarchy while
// another connection sits mid-transaction on it must finish promptly
// (it cannot block behind the writer's X locks) and must acquire zero
// locks doing it. Extends TestSnapshotZeroLocks to the server path.
func TestSnapshotZeroLocksOverWire(t *testing.T) {
	d, srv := newServer(t, server.Config{})
	w, r := dial(t, srv), dial(t, srv)

	root := mustDo(t, w, "(make Widget :Tag 0)")
	for i := 0; i < 40; i++ {
		mustDo(t, w, fmt.Sprintf("(make Part :Tag %d :parent ((%s Parts)))", i, root))
	}

	// Writer: open transaction, touch the root, stay idle holding X locks.
	mustDo(t, w, "(begin)")
	mustDo(t, w, "(set "+root+" Tag 1)")

	reg := d.Observability()
	acq0 := reg.Counter("lock_acquire_total").Load()
	wait0 := reg.Counter("lock_wait_total").Load()

	// Reader: long snapshot scan over the wire, concurrent with the
	// writer. The writer is idle (acquiring nothing), so any counter
	// movement below would be the reader's.
	mustDo(t, r, "(snapshot begin)")
	for i := 0; i < 25; i++ {
		out := mustDo(t, r, "(components-of "+root+")")
		if got := strings.Count(out, "#"); got != 40 {
			t.Fatalf("snapshot scan saw %d components, want 40", got)
		}
	}
	mustDo(t, r, "(snapshot release)")

	if acq := reg.Counter("lock_acquire_total").Load(); acq != acq0 {
		t.Fatalf("snapshot scan acquired %d locks over the wire, want 0", acq-acq0)
	}
	if w := reg.Counter("lock_wait_total").Load(); w != wait0 {
		t.Fatalf("snapshot scan waited on locks over the wire")
	}
	mustDo(t, w, "(commit)")
}

func TestOversizeFrameGetsProtoError(t *testing.T) {
	_, srv := newServer(t, server.Config{MaxFrame: 1 << 10})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A length prefix over the limit: the server answers with a typed
	// proto error, then closes (the stream cannot resync). Send only the
	// header — unread body bytes would turn the close into a TCP reset.
	if _, err := conn.Write([]byte{0, 0, 8, 0}); err != nil { // 2KB promised, 1KB allowed
		t.Fatal(err)
	}
	payload, err := server.ReadFrame(conn, client.MaxReply)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.DecodeReply(payload); !server.IsRemote(err, server.CodeProto) {
		t.Fatalf("err = %v, want typed %s error", err, server.CodeProto)
	}
	if _, err := server.ReadFrame(conn, client.MaxReply); err != io.EOF {
		t.Fatalf("connection should close after proto error, got %v", err)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	_, srv := newServer(t, server.Config{})
	hs := httptest.NewServer(srv.HTTPHandler())
	defer hs.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body = get("/metrics"); code != http.StatusOK || !strings.Contains(body, "server_conns_total") {
		t.Fatalf("/metrics missing server_ family (code %d)", code)
	}
	if code, _ = get("/flight"); code != http.StatusOK {
		t.Fatalf("/flight = %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if code, body = get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/healthz after drain = %d %q, want 503 draining", code, body)
	}
}

func TestHTTPServesCPUProfile(t *testing.T) {
	_, srv := newServer(t, server.Config{})
	hs := httptest.NewServer(srv.HTTPHandler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/pprof/profile = %d with %d bytes", resp.StatusCode, len(body))
	}
}

func TestShutdownRejectsNewConnections(t *testing.T) {
	_, srv := newServer(t, server.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Dial(srv.Addr()); err == nil {
		t.Fatal("dial should fail once the listener is closed")
	}
}
