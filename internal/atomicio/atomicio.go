// Package atomicio provides crash-safe file writes: data lands in a
// temporary file in the destination directory and is renamed into place,
// so readers never observe a truncated artifact. The cache, -stats-json,
// -trace-out and the benchmark JSON emitters all share this helper.
package atomicio

import (
	"os"
	"path/filepath"
)

// WriteFile writes data to path atomically: it creates a temporary file in
// path's directory, writes data, syncs nothing (the rename is the atomicity
// boundary we care about — a crashed run leaves either the old file or the
// new one, never a prefix), chmods to perm, and renames over path. On any
// error the temporary file is removed.
//
// A path that exists and is not a regular file (a symlink, a device, a
// FIFO) is written through in place instead, as a shell redirection
// writes it: renaming over it would replace the link or the device node
// with a regular file. Such a write is not atomic.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	if fi, err := os.Lstat(path); err == nil && !fi.Mode().IsRegular() {
		return writeThrough(path, data, perm)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// writeThrough truncates and writes the file path names, following a
// symlink (and creating a dangling link's target with perm).
func writeThrough(path string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
