package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/server/client"
)

// schemaPrograms defines the Example 2 schema of §2.3 plus the Title
// index. In the shared variant Document.Sections is a shared composite
// reference, so one Section can be a component of several Documents.
func schemaPrograms(shared bool) []string {
	exclusive := "true"
	if shared {
		exclusive = "nil"
	}
	return []string{
		`(make-class 'Paragraph :attributes '((Text :domain string)))`,
		`(make-class 'Annotation :attributes '((Note :domain string)))`,
		`(make-class 'Section :attributes '((Heading :domain string)
		   (Content :domain (set-of Paragraph) :composite true :exclusive true :dependent true)))`,
		`(make-class 'Document :attributes '((Title :domain string)
		   (Sections :domain (set-of Section) :composite true :exclusive ` + exclusive + ` :dependent true)
		   (Annotations :domain (set-of Annotation) :composite true :exclusive true :dependent true)))`,
		`(create-index Document Title)`,
	}
}

// preload runs the dataset's load ops over the given connections, each
// phase spread across all of them. Results are applied under one mutex:
// the preload is not a latency measurement.
func preload(conns []*conn, g *gen, phases [][]*op) error {
	var mu sync.Mutex
	for _, phase := range phases {
		work := make(chan *op)
		errc := make(chan error, len(conns))
		var wg sync.WaitGroup
		for _, cn := range conns {
			wg.Add(1)
			go func(cn *conn) {
				defer wg.Done()
				for o := range work {
					reply, err := cn.do(o.prog)
					if err == nil {
						mu.Lock()
						err = g.done(o, parseRefs(reply))
						mu.Unlock()
					}
					if err != nil {
						errc <- fmt.Errorf("preload %s unit %d: %w", o.kind, o.unit, err)
						for range work { // drain so the producer never blocks
						}
						return
					}
				}
			}(cn)
		}
		for _, o := range phase {
			g.bind(o)
			work <- o
		}
		close(work)
		wg.Wait()
		select {
		case err := <-errc:
			return err
		default:
		}
	}
	return nil
}

func dialAll(addr string, n int) ([]*conn, error) {
	var conns []*conn
	for i := 0; i < n; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			closeAll(conns)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		conns = append(conns, &conn{c: c})
	}
	return conns, nil
}

func closeAll(conns []*conn) {
	for _, cn := range conns {
		_ = cn.c.Close() // a session torn down by a killed server is already closed
	}
}

// instance is one loaded, restarted and verified database with its
// server still running.
type instance struct {
	dir   string
	srv   *child
	m     *model
	setup time.Duration // spawn + preload + kill/restart + verify
	load  time.Duration // the preload alone

	recovery  time.Duration // kill -9 to first good reply
	recovered int           // live objects found after the restart
}

func (in *instance) stop() {
	if in == nil {
		return
	}
	in.srv.kill()
	_ = os.RemoveAll(in.dir) // scratch directory under benchmark/out
}

// setUp builds one instance: spawn on an empty directory, define the
// schema, run the fixed-count preload, kill -9 the server, restart it on
// the same directory and check that every acknowledged commit is there.
// The OS page cache survives a process kill, so this checks atomicity
// and WAL replay, not power loss.
func setUp(bin, outDir string, s *spec, seed int64) (in *instance, err error) {
	start := time.Now()
	dir, err := os.MkdirTemp(outDir, "db-"+s.name+"-")
	if err != nil {
		return nil, err
	}
	in = &instance{dir: dir, m: newModel(s)}
	defer func() {
		if err != nil {
			in.stop()
			in = nil
		}
	}()
	if in.srv, err = spawn(bin, dir); err != nil {
		return in, err
	}
	conns, err := dialAll(in.srv.addr, s.clients)
	if err != nil {
		return in, err
	}
	for _, p := range schemaPrograms(s.shared) {
		if _, err = conns[0].do(p); err != nil {
			closeAll(conns)
			return in, fmt.Errorf("schema: %w", err)
		}
	}
	g := newGen(s, in.m, seed, 0)
	loadStart := time.Now()
	err = preload(conns, g, g.loadPhases(s.units))
	in.load = time.Since(loadStart)
	closeAll(conns)
	if err != nil {
		return in, err
	}

	killed := time.Now()
	in.srv.kill()
	if in.srv, err = spawn(bin, dir); err != nil {
		return in, fmt.Errorf("restart: %w", err)
	}
	conns, err = dialAll(in.srv.addr, 1)
	if err != nil {
		return in, err
	}
	defer closeAll(conns)
	if _, err = conns[0].do("(classes)"); err != nil {
		return in, fmt.Errorf("first request after restart: %w", err)
	}
	in.recovery = time.Since(killed)
	if in.recovered, err = verifyState(conns[0], in.m, seed); err != nil {
		return in, fmt.Errorf("after kill -9 and restart: %w", err)
	}
	in.setup = time.Since(start)
	return in, nil
}

// verifyState checks the database against the model at a quiescent
// point: no integrity violations, the live-object count per class, the
// component closure of a sample of units, the Title index, and the last
// text written to a sample of paragraphs. It returns the live-object count.
func verifyState(cn *conn, m *model, seed int64) (int, error) {
	reply, err := cn.do("(integrity)")
	if err != nil {
		return 0, err
	}
	if strings.TrimSpace(reply) != "[]" {
		return 0, fmt.Errorf("(integrity) reports %.200s", reply)
	}
	docs, secs, paras := m.liveObjects()
	for _, c := range []struct {
		class string
		want  int
	}{{"Document", docs}, {"Section", secs}, {"Paragraph", paras}} {
		reply, err := cn.do("(extent " + c.class + ")")
		if err != nil {
			return 0, err
		}
		if got := strings.Count(reply, "#"); got != c.want {
			return 0, fmt.Errorf("live %s objects: server %d, model %d", c.class, got, c.want)
		}
	}
	const sample = 32
	step := len(m.units)/sample + 1
	for i := int(uint64(seed) % uint64(step)); i < len(m.units); i += step {
		u := m.units[i]
		o := &op{kind: opComponents, unit: i, doc: u.doc, title: u.title}
		for _, k := range []opKind{opComponents, opSelect} {
			o.kind = k
			reply, err := cn.do(o.render())
			if err != nil {
				return 0, err
			}
			if err := m.verify(o, parseRefs(reply), true); err != nil {
				return 0, err
			}
		}
	}
	for _, texts := range m.texts {
		n := 0
		for id, want := range texts {
			if n++; n > sample {
				break
			}
			reply, err := cn.do("(get " + ref(id) + " Text)")
			if err != nil {
				return 0, err
			}
			if reply != fmt.Sprintf("%q", want) {
				return 0, fmt.Errorf("paragraph %s holds %.80s, last acknowledged write was %q", ref(id), reply, want)
			}
		}
	}
	return docs + secs + paras, nil
}
