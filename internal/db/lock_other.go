//go:build !unix

package db

import "os"

// lockDir opens the lock file at path. Off unix no lock is taken: one
// process per directory is then the caller's to keep.
func lockDir(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
}
