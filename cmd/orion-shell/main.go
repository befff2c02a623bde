// Command orion-shell is an interactive REPL over the composite-object
// database, speaking the paper's ORION-flavored s-expression language:
//
//	$ orion-shell
//	orion> (make-class 'Vehicle :attributes '((Body :domain AutoBody :composite true)))
//	orion> (define v (make Vehicle))
//	orion> (components-of v)
//
// Flags:
//
//	-db DIR         open (or create) a persistent database in DIR
//	-e EXPR         evaluate EXPR and exit
//	-f FILE         evaluate the file (then drop into the REPL unless -e/-q)
//	-q              quit after -f/-e instead of starting the REPL
//	-metrics ADDR   serve /metrics, /metrics.json, /trace, /slow on ADDR
//
// Besides s-expressions the REPL accepts meta-commands: `stats` prints
// the metrics snapshot, `trace on|off|dump|clear` controls operation
// tracing, `slow DUR|dump|off` controls the slow-operation log, and
// `flight dump|clear` reads the always-on black-box flight recorder
// (also served at /flight under -metrics). The s-expression surface
// adds (explain expr) for static query plans, (profile expr) for an
// executed cost breakdown, and (flight dump|clear|status).
//
// (snapshot begin) pins a read-only MVCC snapshot: queries then answer
// from the pinned commit boundary — immune to concurrent writers and
// free of lock acquisitions — until (snapshot release); (snapshot
// status) shows the pinned sequence number.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/db"
	"repro/internal/sexpr"
)

func main() {
	dir := flag.String("db", "", "database directory (empty = in-memory)")
	expr := flag.String("e", "", "expression to evaluate")
	file := flag.String("f", "", "file to load")
	quit := flag.Bool("q", false, "exit after -e/-f")
	metrics := flag.String("metrics", "", "address to serve /metrics on (empty = off)")
	flag.Parse()

	d, err := db.Open(db.Options{Dir: *dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer d.Close()
	in := sexpr.NewInterp(d)

	if *metrics != "" {
		go func() {
			if err := http.ListenAndServe(*metrics, d.Observability().Handler()); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", *metrics)
	}

	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		v, err := in.EvalString(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println(v)
	}
	if *expr != "" {
		v, err := in.EvalString(*expr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println(v)
	}
	if *quit || *expr != "" {
		return
	}

	fmt.Println("ORION-style composite object shell — (make-class ...), (make ...), (components-of ...), ctrl-D to exit")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := "orion> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		pending.WriteString(sc.Text())
		pending.WriteString("\n")
		src := pending.String()
		if !balanced(src) {
			prompt = "  ...> "
			continue
		}
		pending.Reset()
		prompt = "orion> "
		if strings.TrimSpace(src) == "" {
			continue
		}
		if out, handled := metaCommand(d, src); handled {
			if out != "" {
				fmt.Println(out)
			}
			continue
		}
		v, err := in.EvalString(src)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Println(v)
	}
}

// metaCommand handles the shell's non-s-expression commands against the
// database's observability registry. It returns the text to print and
// whether the line was a meta-command at all (unhandled lines fall
// through to the s-expression evaluator).
func metaCommand(d *db.DB, line string) (string, bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", false
	}
	reg := d.Observability()
	switch fields[0] {
	case "stats":
		return statsText(d), true
	case "trace":
		if len(fields) == 2 {
			switch fields[1] {
			case "on":
				reg.Tracer().SetActive(true)
				return "tracing on", true
			case "off":
				reg.Tracer().SetActive(false)
				return "tracing off", true
			case "dump":
				evs := reg.Tracer().Events()
				if len(evs) == 0 {
					return "trace: no events", true
				}
				var b strings.Builder
				for i, ev := range evs {
					if i > 0 {
						b.WriteByte('\n')
					}
					b.WriteString(ev.String())
				}
				return b.String(), true
			case "clear":
				reg.Tracer().Clear()
				return "trace cleared", true
			}
		}
		return "usage: trace on|off|dump|clear", true
	case "slow":
		if len(fields) == 2 {
			switch fields[1] {
			case "off":
				reg.Slow().SetThreshold(0)
				return "slow log off", true
			case "dump":
				entries := reg.Slow().Entries()
				if len(entries) == 0 {
					return "slow: no entries", true
				}
				var b strings.Builder
				for i, e := range entries {
					if i > 0 {
						b.WriteByte('\n')
					}
					fmt.Fprintf(&b, "%s %s %s", e.Op, e.Dur, e.Detail)
				}
				return b.String(), true
			default:
				dur, err := time.ParseDuration(fields[1])
				if err == nil && dur > 0 {
					reg.Slow().SetThreshold(dur)
					return fmt.Sprintf("slow log on, threshold %s", dur), true
				}
			}
		}
		return "usage: slow DURATION|dump|off", true
	case "flight":
		if len(fields) == 2 {
			switch fields[1] {
			case "dump":
				recs := reg.Flight().Records()
				if len(recs) == 0 {
					return "flight: no records", true
				}
				var b strings.Builder
				for i, r := range recs {
					if i > 0 {
						b.WriteByte('\n')
					}
					b.WriteString(r.String())
				}
				return b.String(), true
			case "clear":
				reg.Flight().Clear()
				return "flight recorder cleared", true
			}
		}
		return "usage: flight dump|clear", true
	}
	return "", false
}

// statsText renders the registry snapshot for the REPL: non-zero
// counters and gauges sorted by name, histograms as count and mean.
func statsText(d *db.DB) string {
	snap := d.Observability().Snapshot()
	var lines []string
	for n, v := range snap.Counters {
		if v != 0 {
			lines = append(lines, fmt.Sprintf("%s %d", n, v))
		}
	}
	for n, v := range snap.Gauges {
		if v != 0 {
			lines = append(lines, fmt.Sprintf("%s %d", n, v))
		}
	}
	for n, h := range snap.Histograms {
		if h.Count != 0 {
			lines = append(lines, fmt.Sprintf("%s count=%d mean=%s", n, h.Count,
				time.Duration(h.Sum/int64(h.Count))))
		}
	}
	if len(lines) == 0 {
		return "stats: all zero"
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// balanced reports whether every '(' has been closed (ignoring strings
// and comments), so multi-line input works.
func balanced(src string) bool {
	depth := 0
	inStr := false
	inComment := false
	esc := false
	for _, r := range src {
		switch {
		case inComment:
			if r == '\n' {
				inComment = false
			}
		case inStr:
			if esc {
				esc = false
			} else if r == '\\' {
				esc = true
			} else if r == '"' {
				inStr = false
			}
		case r == '"':
			inStr = true
		case r == ';':
			inComment = true
		case r == '(':
			depth++
		case r == ')':
			depth--
		}
	}
	return depth <= 0 && !inStr
}
