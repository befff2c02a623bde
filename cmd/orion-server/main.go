// Command orion-server serves the composite-object database over TCP,
// speaking the same s-expression surface as orion-shell through the
// length-prefixed wire protocol of internal/server (DESIGN.md §14).
// Each connection is an independent session: its own (define) bindings,
// its own (begin)/(commit) transaction, its own (snapshot begin) MVCC
// read boundary.
//
// Flags:
//
//	-addr ADDR      TCP listen address (default 127.0.0.1:4707)
//	-db DIR         open (or create) a persistent database in DIR
//	-sync           fsync the WAL on commit (durable runs; default true with -db)
//	-max-conns N    admission limit; extra connections get a typed busy error
//	-max-frame N    request frame size limit in bytes
//	-write-timeout  per-reply write bound; slow readers are disconnected
//	-drain D        graceful-drain bound on SIGTERM/SIGINT
//	-metrics ADDR   HTTP surface: /metrics, /flight, /healthz, /debug/pprof/, ...
//
// On SIGTERM or SIGINT the server drains: the listener closes, in-flight
// requests (commits included) finish and flush their replies, idle
// sessions' open transactions are aborted, and then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4707", "TCP listen address")
	dir := flag.String("db", "", "database directory (empty = in-memory)")
	sync := flag.Bool("sync", true, "fsync WAL on commit (only meaningful with -db)")
	maxConns := flag.Int("max-conns", 64, "connection admission limit")
	maxFrame := flag.Uint("max-frame", server.DefaultMaxFrame, "request frame size limit (bytes)")
	writeTimeout := flag.Duration("write-timeout", 10*time.Second, "per-reply write bound")
	drain := flag.Duration("drain", 5*time.Second, "graceful-drain bound on SIGTERM")
	metrics := flag.String("metrics", "", "address to serve /metrics and /healthz on (empty = off)")
	flag.Parse()

	d, err := db.Open(db.Options{Dir: *dir, SyncWAL: *sync && *dir != ""})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}

	srv := server.New(d, server.Config{
		Addr:         *addr,
		MaxConns:     *maxConns,
		MaxFrame:     uint32(*maxFrame),
		WriteTimeout: *writeTimeout,
		DrainTimeout: *drain,
	})
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "orion-server listening on %s\n", srv.Addr())

	if *metrics != "" {
		go func() {
			if err := http.ListenAndServe(*metrics, srv.HTTPHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", *metrics)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	fmt.Fprintln(os.Stderr, "draining...")
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	if err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}
}
