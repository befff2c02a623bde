// Command simrunner drives the model-based simulation harness
// (internal/sim) outside of `go test`, for soak runs over many seeds
// and for replaying saved failure traces:
//
//	go run ./cmd/simrunner -seed 1 -ops 5000
//	go run ./cmd/simrunner -seeds 100 -ops 2000 -evolution -durable -crash
//	go run ./cmd/simrunner -replay failure.trace -seed 1
//	go run ./cmd/simrunner -net -workers 8 -ops 500 -durable
//	go run ./cmd/simrunner -workers 4 -recluster -ops 1000 -durable
//
// On failure it prints the seed, the failing step and op, and the
// minimized trace (replayable with -replay), then exits 1. On success
// it prints one summary line per seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/sim"
)

type options struct {
	seed       int64
	seeds      int
	ops        int
	dir        string
	durable    bool
	evolution  bool
	checkpoint bool
	crash      bool
	replay     string
	workers    int
	readers    int
	net        bool
	recluster  bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("simrunner", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "first workload seed")
	fs.IntVar(&o.seeds, "seeds", 1, "number of consecutive seeds to run")
	fs.IntVar(&o.ops, "ops", 1000, "ops per workload")
	fs.StringVar(&o.dir, "dir", "", "database directory for durable runs (default: per-seed temp dir)")
	fs.BoolVar(&o.durable, "durable", false, "run against an on-disk database with WAL recovery")
	fs.BoolVar(&o.evolution, "evolution", false, "include schema-evolution ops")
	fs.BoolVar(&o.checkpoint, "checkpoint", false, "include checkpoint ops (durable only)")
	fs.BoolVar(&o.crash, "crash", false, "include crash/recovery ops (implies -durable)")
	fs.StringVar(&o.replay, "replay", "", "replay a saved trace file instead of generating a workload")
	fs.IntVar(&o.workers, "workers", 0, "run the concurrent harness with this many writer goroutines (0 = sequential)")
	fs.IntVar(&o.readers, "readers", 0, "add this many snapshot-reader goroutines to the concurrent harness (requires -workers)")
	fs.BoolVar(&o.net, "net", false, "drive the concurrent harness through TCP clients against an in-process server (requires -workers)")
	fs.BoolVar(&o.recluster, "recluster", false, "run the background reclusterer under the concurrent harness (requires -workers)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.crash {
		o.durable = true
	}
	if o.readers > 0 && o.workers == 0 {
		return o, fmt.Errorf("-readers requires -workers")
	}
	if o.net && o.workers == 0 {
		return o, fmt.Errorf("-net requires -workers")
	}
	if o.recluster && o.workers == 0 {
		return o, fmt.Errorf("-recluster requires -workers")
	}
	return o, nil
}

func (o options) config(seed int64) sim.Config {
	return sim.Config{
		Seed:       seed,
		Ops:        o.ops,
		Durable:    o.durable,
		Dir:        o.dir,
		Evolution:  o.evolution,
		Checkpoint: o.checkpoint,
		Crash:      o.crash,
	}
}

// run executes the requested workloads and writes progress to out.
// It returns the first failure, or nil when every seed passed.
func run(o options, out io.Writer) (*sim.Failure, error) {
	if o.replay != "" {
		f, err := os.Open(o.replay)
		if err != nil {
			return nil, err
		}
		ops, err := sim.ParseTrace(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", o.replay, err)
		}
		fmt.Fprintf(out, "replaying %s (%d ops, seed=%d)\n", o.replay, len(ops), o.seed)
		return sim.RunTrace(o.config(o.seed), ops), nil
	}
	for i := 0; i < o.seeds; i++ {
		seed := o.seed + int64(i)
		if o.workers > 0 {
			res := sim.RunConcurrent(sim.ConcurrentConfig{
				Seed:      seed,
				Workers:   o.workers,
				Readers:   o.readers,
				Ops:       o.ops,
				Durable:   o.durable,
				Dir:       o.dir,
				Net:       o.net,
				Recluster: o.recluster,
			})
			if res.Failure != nil {
				return res.Failure, nil
			}
			mode := "embedded"
			if o.net {
				mode = "net"
			}
			fmt.Fprintf(out, "seed=%d mode=%s workers=%d readers=%d ops=%d committed=%d aborted=%d deadlock-retries=%d snapshot-reads=%d recluster-migrations=%d ok\n",
				seed, mode, o.workers, o.readers, o.ops, res.Committed, res.Aborted, res.DeadlockRetries, res.SnapshotReads, res.ReclusterMigrations)
			continue
		}
		if fail := sim.Run(o.config(seed)); fail != nil {
			return fail, nil
		}
		fmt.Fprintf(out, "seed=%d ops=%d ok\n", seed, o.ops)
	}
	return nil, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	fail, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simrunner:", err)
		os.Exit(2)
	}
	if fail != nil {
		fmt.Fprintln(os.Stderr, fail.Report())
		os.Exit(1)
	}
}
