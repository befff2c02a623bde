package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/encoding"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/storage"
)

// Leaf drivers: layers no ladder rung isolates, called directly on
// workload-shaped inputs taken from the core rung's loaded database.

const leafIters = 2000

// leafMetrics fills the D-sourced per-layer numbers.
func (l *ladder) leafMetrics(outDir string, out map[string]float64) error {
	r := l.rungs[rCore]
	e := r.d.Engine()

	// lock: uncontended §7 write admission to the composite units holding
	// a paragraph, and its release — what every small write pays.
	proto := lock.NewProtocol(lock.NewManager(), e)
	start := time.Now()
	for i := 0; i < leafIters; i++ {
		sec, p := r.g.pickPara(r.g.pickUnit())
		tx := lock.TxID(i + 1)
		if err := proto.LockUnitsWrite(tx, sec.paras[p]); err != nil {
			return fmt.Errorf("lock driver: %w", err)
		}
		proto.M.ReleaseAll(tx)
	}
	out["lock.admit_ns_per_op"] = float64(time.Since(start)) / leafIters

	// encoding: the objects of whole units, in the dataset's own class mix.
	var objs []*object.Object
	for i := 0; len(objs) < leafIters; i = (i + 1) % len(r.m.units) {
		ids := append(r.m.closure(i, 0, true), r.m.units[i].doc)
		for _, id := range ids {
			o, err := e.Get(id)
			if err != nil {
				return fmt.Errorf("encoding driver: %w", err)
			}
			objs = append(objs, o)
		}
	}
	var recs [][]byte
	start = time.Now()
	for _, o := range objs {
		recs = append(recs, encoding.EncodeObject(o))
	}
	out["encoding.encode_ns_per_object"] = float64(time.Since(start)) / float64(len(objs))
	var encBytes int
	for _, rec := range recs {
		encBytes += len(rec)
	}
	out["encoding.bytes_per_object"] = float64(encBytes) / float64(len(recs))

	// storage: WAL.Append of those records, then raw WAL.Sync after a
	// small append — this box's fsync, the floor under every commit.
	path := filepath.Join(outDir, fmt.Sprintf("leaf-%d.wal", os.Getpid()))
	wal, err := storage.OpenWAL(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer wal.Close()
	start = time.Now()
	for i, rec := range recs {
		if err := wal.Append(storage.WALRecord{Op: storage.OpPut, Txn: uint64(i + 1), UID: objs[i].UID(), Data: rec}); err != nil {
			return err
		}
	}
	out["storage.wal_append_ns"] = float64(time.Since(start)) / float64(len(recs))
	if out["storage.fsync_ns_p50"], err = fsyncP50(wal, 200); err != nil {
		return err
	}

	// server: framing alone — WriteFrame + ReadFrame of real requests and
	// their replies through memory.
	pairs := l.rungs[rWire].samples
	if len(pairs) == 0 {
		return fmt.Errorf("frame driver: the wire rung kept no samples")
	}
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	start = time.Now()
	for i := 0; i < leafIters; i++ {
		for _, payload := range pairs[i%len(pairs)] {
			if err := server.WriteFrame(&buf, []byte(payload)); err != nil {
				return err
			}
			if _, err := server.ReadFrame(br, client.MaxReply); err != nil {
				return err
			}
		}
	}
	out["server.frame_ns_per_op"] = float64(time.Since(start)) / leafIters
	return nil
}

// fsyncP50 is the median of n raw WAL.Sync calls, each after one small
// append so there is always something to flush.
func fsyncP50(wal *storage.WAL, n int) (float64, error) {
	fsync := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		if err := wal.Append(storage.WALRecord{Op: storage.OpCommit, Txn: uint64(i + 1)}); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := wal.Sync(); err != nil {
			return 0, err
		}
		fsync = append(fsync, int64(time.Since(start)))
	}
	sortInt64(fsync)
	return float64(percentile(fsync, 50)), nil
}

// measureFsync is the raw fsync p50 alone, for the environment stamp of
// runs that do not climb the ladder.
func measureFsync(outDir string) (float64, error) {
	path := filepath.Join(outDir, fmt.Sprintf("fsync-%d.wal", os.Getpid()))
	wal, err := storage.OpenWAL(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer wal.Close()
	return fsyncP50(wal, 50)
}
