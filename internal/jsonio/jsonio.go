// Package jsonio holds the one JSON-file idiom the run engine's persistence
// layers share: atomic writes. Artifacts, run manifests and recording
// manifests are all read back by later processes (resume, replay), so a
// crash mid-write must never leave a half-written file behind.
package jsonio

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// WriteAtomic marshals v (indented, trailing newline) and commits it to path
// via a temp file + rename, so readers only ever observe the old or the new
// complete contents. Every call writes its own uniquely named temp file in
// path's directory, so concurrent writers of one path (a stale-lease
// takeover re-running a cell) never share one: the last rename wins whole.
func WriteAtomic(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("jsonio: encoding %s: %w", path, err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("jsonio: writing %s: %w", path, err)
	}
	tmp := f.Name()
	_, werr := f.Write(append(b, '\n'))
	if err := errors.Join(werr, f.Chmod(0o644), f.Close()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jsonio: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jsonio: committing %s: %w", path, err)
	}
	return nil
}
