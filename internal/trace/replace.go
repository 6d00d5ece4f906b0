package trace

import "os"

// ReplaceFile atomically replaces path with data: it writes a
// same-directory temp file, fsyncs it, then renames it over the target.
// Rename alone is not enough — it commits the name, not the bytes, and
// a power failure after an unsynced rename can leave the new file empty
// or torn at its final path. A crash therefore leaves either the old
// contents or the new ones at path. On any error the temp file is
// removed. Every state file this repository persists (checkpoints, the
// queue log's rewrites, job artifacts) goes through here.
func ReplaceFile(path string, data []byte) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
