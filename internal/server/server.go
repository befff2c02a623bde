package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/sexpr"
)

// Config tunes one Server.
type Config struct {
	// Addr is the TCP listen address (default 127.0.0.1:4707; use port 0
	// for an ephemeral port — Addr() reports what was bound).
	Addr string
	// MaxConns is the admission limit: connections over it are answered
	// with a CodeBusy reply and closed instead of queueing (default 64).
	MaxConns int
	// MaxFrame bounds request payload size (default DefaultMaxFrame).
	MaxFrame uint32
	// WriteTimeout bounds each reply write: a reader too slow to drain
	// its replies has its session torn down rather than parking a server
	// goroutine on a full socket forever (default 10s).
	WriteTimeout time.Duration
	// DrainTimeout bounds Close's wait for sessions after a failed or
	// absent graceful drain (default 5s).
	DrainTimeout time.Duration
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:4707"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
}

// metrics is the server_ instrument family, bound once at New so the
// family is present in /metrics from boot (promcheck relies on that).
type metrics struct {
	connsTotal    *obs.Counter
	connsRejected *obs.Counter
	connsActive   *obs.Gauge
	requests      *obs.Counter
	requestErrs   *obs.Counter
	requestNs     *obs.Histogram
	rxBytes       *obs.Counter
	txBytes       *obs.Counter
	writeTimeouts *obs.Counter
	txnAborts     *obs.Counter
	drains        *obs.Counter
}

// Server owns one listener and its sessions. One session per accepted
// connection; each session is an independent sexpr.Interp, so explicit
// transactions, snapshots, and (define) bindings are per-connection.
type Server struct {
	d   *db.DB
	cfg Config
	m   metrics

	ln net.Listener
	wg sync.WaitGroup // accept loop + one goroutine per session

	mu       sync.Mutex
	sessions map[*session]struct{}
	started  bool
	draining bool
	closed   bool
}

// New builds a server over an open database. Start actually listens.
func New(d *db.DB, cfg Config) *Server {
	cfg.fill()
	r := d.Observability()
	return &Server{
		d:   d,
		cfg: cfg,
		m: metrics{
			connsTotal:    r.Counter("server_conns_total"),
			connsRejected: r.Counter("server_conns_rejected_total"),
			connsActive:   r.Gauge("server_conns_active"),
			requests:      r.Counter("server_requests_total"),
			requestErrs:   r.Counter("server_request_errors_total"),
			requestNs:     r.Histogram("server_request_ns", nil),
			rxBytes:       r.Counter("server_rx_bytes_total"),
			txBytes:       r.Counter("server_tx_bytes_total"),
			writeTimeouts: r.Counter("server_write_timeouts_total"),
			txnAborts:     r.Counter("server_disconnect_aborts_total"),
			drains:        r.Counter("server_drains_total"),
		},
		sessions: make(map[*session]struct{}),
	}
}

// Start binds the listener and launches the accept loop.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("server: already started")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.started = true
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr reports the bound listen address (useful with port 0).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// ActiveSessions reports the number of live sessions (for /healthz and
// the leak tests).
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed: drain or shutdown
		}
		if !s.admit(conn) {
			continue
		}
	}
}

// admit applies the admission policy to a fresh connection: over the
// limit (or draining) the client gets one typed error frame and a close
// — graceful backpressure, never a silent hang — otherwise a session
// starts. Returns false when the connection was turned away.
func (s *Server) admit(conn net.Conn) bool {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		s.refuse(conn, CodeShutdown, "server is draining")
		return false
	}
	if len(s.sessions) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.m.connsRejected.Inc()
		s.refuse(conn, CodeBusy, fmt.Sprintf("connection limit %d reached", s.cfg.MaxConns))
		return false
	}
	sess := &session{s: s, conn: conn, br: bufio.NewReader(conn), in: sexpr.NewInterp(s.d)}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.m.connsTotal.Inc()
	s.m.connsActive.Add(1)
	s.wg.Add(1)
	go sess.run()
	return true
}

// refuse answers a turned-away connection with one error frame.
func (s *Server) refuse(conn net.Conn, code, msg string) {
	s.send(conn, endFrame(appendError(startFrame(nil), code, msg))) // best effort; the close is the decision
	conn.Close()
}

// send writes one whole frame in a single Write under a fresh write
// deadline. The deadline is left in place: only the next send's writes
// see it, and that send sets its own.
func (s *Server) send(conn net.Conn, frame []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_, err := conn.Write(frame)
	return err
}

func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// Shutdown drains gracefully: stop accepting, let every in-flight
// evaluation finish and flush its reply (a commit being processed when
// the signal lands completes durably), then abort whatever transactions
// idle sessions still hold and close them. Blocks until all sessions are
// gone or ctx expires; on expiry remaining connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining
	s.draining = true
	ln := s.ln
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if !alreadyDraining {
		s.m.drains.Inc()
	}
	if ln != nil {
		ln.Close()
	}
	// Wake idle readers: an expired read deadline pops them out of
	// readFrame immediately, and teardown aborts their transactions. A
	// session mid-evaluation is not parked in a read, so it finishes its
	// request and replies; then it stops before its next request, whether
	// that is still in the socket (the read observes the deadline) or
	// already in the session's read buffer (run checks the drain).
	for _, sess := range sessions {
		sess.conn.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return err
}

// Close shuts down without grace beyond DrainTimeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// HTTPHandler serves the observability surface plus liveness: the full
// internal/obs handler (/metrics, /metrics.json, /trace, /slow, /flight),
// /healthz reporting session count and drain state (503 once draining,
// so load balancers stop routing before the listener vanishes), and the
// Go runtime profiles under /debug/pprof/. A profile is taken while the
// server runs, so it needs no clean exit to be written.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.d.Observability().Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		draining := s.isDraining()
		st := "ok"
		code := http.StatusOK
		if draining {
			st = "draining"
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]any{
			"status":   st,
			"sessions": s.ActiveSessions(),
		})
	})
	return mux
}

// maxKeptBuffer caps the request and reply buffers a session keeps
// between requests: a buffer that grew past it for one large frame is
// dropped after that request instead of held for the connection's life.
const maxKeptBuffer = 64 << 10

// session is one connection's state: the conn, its buffered reader, its
// interpreter, and the buffers its requests and replies reuse.
// Everything session-scoped (open transaction, snapshot, defines) lives
// in the Interp; teardown closes it, which aborts the transaction and
// releases the snapshot no matter how the connection ended.
type session struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader // header and body of a request arrive in one read
	in   *sexpr.Interp
	req  []byte // storage of the last request payload
	out  []byte // storage of the last reply frame
}

func (sess *session) run() {
	s := sess.s
	defer func() {
		if sess.in.InTxn() {
			s.m.txnAborts.Inc()
		}
		sess.in.Close()
		sess.conn.Close()
		s.removeSession(sess)
		s.m.connsActive.Add(-1)
		s.wg.Done()
	}()
	for {
		// A request already buffered when a drain begins is dropped, as
		// one still in the socket is: the drain's read deadline stops
		// only reads that reach the conn.
		if sess.br.Buffered() > 0 && s.isDraining() {
			return
		}
		payload, err := readFrame(sess.br, s.cfg.MaxFrame, sess.req)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The stream is unrecoverable but the client can still
				// learn why before the close.
				s.send(sess.conn, endFrame(appendError(startFrame(sess.out[:0]), CodeProto, err.Error())))
			}
			return
		}
		s.m.rxBytes.Add(uint64(len(payload) + frameHeader))
		start := time.Now()
		v, err := sess.in.EvalString(string(payload))
		s.m.requests.Inc()
		s.m.requestNs.Observe(time.Since(start).Nanoseconds())
		frame := startFrame(sess.out[:0])
		if err != nil {
			s.m.requestErrs.Inc()
			frame = appendError(frame, sexpr.ErrorCode(err), err.Error())
		} else {
			frame = v.AppendText(append(frame, statusOK))
		}
		if err := s.send(sess.conn, endFrame(frame)); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.m.writeTimeouts.Inc()
			}
			return
		}
		s.m.txBytes.Add(uint64(len(frame)))
		sess.req, sess.out = keep(payload), keep(frame)
	}
}

// keep returns b for reuse, or nil when it is over maxKeptBuffer.
func keep(b []byte) []byte {
	if cap(b) > maxKeptBuffer {
		return nil
	}
	return b
}
