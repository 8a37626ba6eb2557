//go:build unix

package atomicio

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// A symlink is written through, not replaced: the link survives and its
// target holds the data, and a dangling link's target is created.
func TestWriteFileSymlink(t *testing.T) {
	dir := t.TempDir()
	target, link := filepath.Join(dir, "target.json"), filepath.Join(dir, "link.json")
	if err := os.WriteFile(target, []byte("old contents\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(link, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("link replaced: %v, %v", fi.Mode(), err)
	}
	if b, err := os.ReadFile(target); err != nil || string(b) != "new" {
		t.Fatalf("target = %q, %v; want %q", b, err, "new")
	}

	dangling, missing := filepath.Join(dir, "dangling.json"), filepath.Join(dir, "missing.json")
	if err := os.Symlink(missing, dangling); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(dangling, []byte("made"), 0o644); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(missing); err != nil || string(b) != "made" {
		t.Fatalf("dangling link's target = %q, %v; want %q", b, err, "made")
	}
}

// A FIFO is written through: a reader receives the data and the path
// stays a FIFO.
func TestWriteFileFIFO(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "pipe")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	got := make(chan string, 1)
	go func() {
		f, err := os.Open(fifo) // blocks until the writer opens
		if err != nil {
			got <- "open: " + err.Error()
			return
		}
		defer f.Close()
		b, err := io.ReadAll(f)
		if err != nil {
			got <- "read: " + err.Error()
			return
		}
		got <- string(b)
	}()
	if err := WriteFile(fifo, []byte("through the pipe"), 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "through the pipe" {
			t.Fatalf("reader got %q", s)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the reader received nothing: the write did not go through the FIFO")
	}
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("FIFO replaced: %v, %v", fi.Mode(), err)
	}
}
