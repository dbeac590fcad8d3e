package statefile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesOnlyOnSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := Write(path, write("first")); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, write("second")); err != nil {
		t.Fatal(err)
	}

	// An encoder that fails half-way: the previous bytes stay, and no
	// temporary file is left beside them.
	boom := errors.New("encoder failed half-way")
	err := Write(path, func(w io.Writer) error {
		if _, werr := io.WriteString(w, "thi"); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want the encoder's error", err)
	}
	if got, rerr := os.ReadFile(path); rerr != nil || string(got) != "second" {
		t.Errorf("after a failed write the file holds %q (%v), want the previous bytes", got, rerr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.bin" {
		t.Errorf("directory holds %v, want state.bin alone", entries)
	}

	if err := Write(filepath.Join(dir, "missing", "state.bin"), write("x")); err == nil {
		t.Error("a path whose directory does not exist should fail")
	}
}
