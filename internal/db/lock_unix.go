//go:build unix

package db

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// lockDir opens the lock file at path and takes an exclusive flock on
// it, failing with ErrLocked when another open file description — of
// this process or another — holds it. Closing the file releases it.
func lockDir(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s is locked", ErrLocked, path)
		}
		return nil, fmt.Errorf("db: lock %s: %w", path, err)
	}
	return f, nil
}
