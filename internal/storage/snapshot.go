package storage

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// File is what a snapshot is written through: an *os.File, or a
// fault-injecting file from internal/faultfs.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// CreateFile creates (truncating) the file at path: the default way a
// checkpoint opens its snapshot.
func CreateFile(path string) (File, error) { return os.Create(path) }

// SnapshotWriter streams a snapshot: one OpPut frame per object, in the
// WAL's framing and checksum, then an OpSnapshotEnd frame. Replay reads
// it back with ReplayStrict; a file without its end frame is damaged.
type SnapshotWriter struct {
	f     File
	w     *bufio.Writer
	frame []byte
}

// NewSnapshotWriter writes a snapshot to f through a buffer.
func NewSnapshotWriter(f File) *SnapshotWriter {
	return &SnapshotWriter{f: f, w: bufio.NewWriterSize(f, 64<<10)}
}

// Put writes one object's frame: its UID and its encoded record.
func (s *SnapshotWriter) Put(rec WALRecord) error {
	var err error
	if s.frame, err = appendFrame(s.frame[:0], rec); err != nil {
		return err
	}
	_, err = s.w.Write(s.frame)
	return err
}

// Finish writes the end frame, which records lastUID (the highest UID
// serial issued), and flushes and fsyncs the file. It does not close it.
func (s *SnapshotWriter) Finish(lastUID uint64) error {
	end := WALRecord{Op: OpSnapshotEnd}
	end.UID.Serial = lastUID
	if err := s.Put(end); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync snapshot: %w", err)
	}
	return nil
}

// ReplaySnapshot calls fn with every object frame of the snapshot at path
// and returns the UID serial its end frame records. A missing file is an
// empty snapshot. Damage anywhere in the file, a frame after the end
// frame, or a missing end frame returns ErrCorruptWAL.
func ReplaySnapshot(path string, fn func(WALRecord) error) (lastUID uint64, err error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	corrupt := fmt.Errorf("%w in %s", ErrCorruptWAL, path)
	ended := false
	err = ReplayStrict(path, func(rec WALRecord) error {
		switch {
		case ended || rec.Op != OpPut && rec.Op != OpSnapshotEnd:
			return corrupt
		case rec.Op == OpSnapshotEnd:
			ended, lastUID = true, rec.UID.Serial
			return nil
		}
		return fn(rec)
	})
	if err == nil && !ended {
		err = corrupt
	}
	return lastUID, err
}
