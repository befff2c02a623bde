package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sexpr"
	"repro/internal/uid"
)

// conn is one closed-loop session: it sends a program, waits for the
// reply, and only then sends the next — an ORION session is a caller
// that waits, so the offered load falls when the server slows.
type conn struct {
	c       *client.Client
	retries int64
}

// txIDOf extracts N from a deadlock verdict ("tx N requesting ..."): the
// identity the victim must retry under so it is no longer the youngest.
func txIDOf(msg string) (uint64, bool) {
	i := strings.Index(msg, "tx ")
	if i < 0 {
		return 0, false
	}
	rest := msg[i+3:]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.ParseUint(rest[:j], 10, 64)
	return n, err == nil && n > 0
}

// do runs one program to a verdict. A deadlock victim is retried up to
// maxRetries times under its original transaction identity; any other
// failure clears the session's transaction and snapshot so the next op
// starts clean, and is returned.
func (cn *conn) do(prog string) (string, error) {
	p := prog
	for attempt := 0; ; attempt++ {
		reply, err := cn.c.Do(p)
		if err == nil {
			return reply, nil
		}
		var re *server.RemoteError
		if !errors.As(err, &re) {
			return "", err // transport failure: the session is gone
		}
		if re.Code == sexpr.CodeDeadlock && attempt < maxRetries && strings.HasPrefix(prog, "(begin)") {
			cn.retries++
			if id, ok := txIDOf(re.Msg); ok {
				p = "(begin " + strconv.FormatUint(id, 10) + ")" + prog[len("(begin)"):]
			}
			continue
		}
		if re.Code != sexpr.CodeDeadlock {
			// Best effort: each fails harmlessly when there is nothing open.
			_, _ = cn.c.Do("(abort)")
			_, _ = cn.c.Do("(snapshot release)")
		}
		return "", err
	}
}

// worker is one client of a measured window.
type worker struct {
	cn  *conn
	g   *gen
	lat []int64 // ns, one per successful op

	attempted, failed int64
	refs              int64 // UIDs returned by replies
	payload           int64 // user attribute bytes written
	firstErr          error // first wrong output or unexpected failure
}

// run issues ops until the deadline. With record unset it warms up: same
// ops, nothing kept.
func (w *worker) run(m *model, deadline time.Time, record bool) {
	for time.Now().Before(deadline) {
		o := w.g.next()
		start := time.Now()
		reply, err := w.cn.do(o.prog)
		d := time.Since(start)
		var re *server.RemoteError
		transport := err != nil && !errors.As(err, &re)
		var res []uid.UID
		if err == nil {
			res = parseRefs(reply)
			err = w.g.done(o, res)
		}
		if err == nil && o.check {
			err = m.verify(o, res, false)
		}
		if record {
			w.attempted++
		}
		if err != nil {
			if record {
				w.failed++
			}
			// A victim out of retries was refused, which counts as failed;
			// anything else is a wrong output and fails the run.
			if !server.IsRemote(err, sexpr.CodeDeadlock) && w.firstErr == nil {
				w.firstErr = fmt.Errorf("client %d: %s: %w", w.g.client, o.kind, err)
			}
			if transport {
				return // the session is gone
			}
			continue
		}
		if record {
			w.lat = append(w.lat, int64(d))
			w.refs += int64(len(res))
			w.payload += int64(o.payload)
		}
	}
}

// window is what one measured interval produced.
type window struct {
	elapsed           time.Duration
	lat               []int64 // sorted
	attempted, failed int64
	retries           int64
	refs, payload     int64
	cpuMs             float64 // child CPU over the window
	m                 samples // /metrics delta over the window
	firstErr          error
}

func (w *window) ok() int64 { return w.attempted - w.failed }

// runWindow runs warm-up then the measured window on every worker. The
// workers stop at a barrier between the two, so the /metrics and CPU
// readings taken there bracket exactly the measured ops.
func runWindow(srv *child, m *model, workers []*worker, warm, measure time.Duration) (*window, error) {
	phase := func(d time.Duration, record bool) time.Duration {
		start := time.Now()
		deadline := start.Add(d)
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.run(m, deadline, record)
			}(w)
		}
		wg.Wait()
		return time.Since(start)
	}
	phase(warm, false)
	for _, w := range workers {
		w.cn.retries = 0
	}
	before, err := scrape(srv.metrics)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuMillis()
	if err != nil {
		return nil, err
	}
	out := &window{}
	out.elapsed = phase(measure, true)
	cpu1, err := srv.cpuMillis()
	if err != nil {
		return nil, err
	}
	after, err := scrape(srv.metrics)
	if err != nil {
		return nil, err
	}
	out.cpuMs = cpu1 - cpu0
	out.m = delta(before, after)
	for _, w := range workers {
		out.lat = append(out.lat, w.lat...)
		out.attempted += w.attempted
		out.failed += w.failed
		out.retries += w.cn.retries
		out.refs += w.refs
		out.payload += w.payload
		if out.firstErr == nil {
			out.firstErr = w.firstErr
		}
	}
	sortInt64(out.lat)
	return out, nil
}
