package jsonio

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type record struct {
	Writer  int    `json:"writer"`
	Payload string `json:"payload"`
}

// dirNames lists the entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// TestWriteAtomicConcurrentWriters pins that writers racing on one path all
// commit cleanly: every call returns nil, the file decodes whole to one of
// the written values, and no temp file is left behind.
func TestWriteAtomicConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	const writers = 16
	payload := string(make([]byte, 64<<10)) // large enough to interleave writes
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = WriteAtomic(path, record{Writer: i, Payload: payload})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got record
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("committed file does not decode: %v", err)
	}
	if got.Writer < 0 || got.Writer >= writers || got.Payload != payload {
		t.Fatalf("committed file holds writer %d with a %d-byte payload", got.Writer, len(got.Payload))
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "artifact.json" {
		t.Fatalf("directory holds %v, want only artifact.json", names)
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
		t.Fatalf("committed file mode = %v (%v), want 0644", info.Mode().Perm(), err)
	}
}

// TestWriteAtomicErrorsLeaveNoTemp pins the failure paths: an unencodable
// value, a missing directory and a failed rename all return an error and
// leave no temp file behind.
func TestWriteAtomicErrorsLeaveNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := WriteAtomic(filepath.Join(dir, "bad.json"), make(chan int)); err == nil {
		t.Fatal("encoding a channel should fail")
	}
	if err := WriteAtomic(filepath.Join(dir, "missing", "x.json"), 1); err == nil {
		t.Fatal("writing into a missing directory should fail")
	}
	// A directory in the target's place makes the rename fail after the
	// temp file was written.
	if err := os.Mkdir(filepath.Join(dir, "taken.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(filepath.Join(dir, "taken.json"), 1); err == nil {
		t.Fatal("renaming over a directory should fail")
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "taken.json" {
		t.Fatalf("directory holds %v after failed writes, want only taken.json", names)
	}
}
