package statefile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces the file at path with what encode writes. The bytes go to
// a temporary file in path's directory, are synced to disk, and only then
// renamed over path: a reader sees the old file or the new one, never a
// truncated mix, and an encode that fails leaves the old file intact and
// no temporary file behind.
func Write(path string, encode func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = encode(tmp); err != nil {
		return err
	}
	if err = tmp.Chmod(0o644); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
