package backup

import (
	"fmt"

	"medvault/internal/faultfs"
)

// SaveArchive writes the encoded archive to path durably: the bytes are
// written to a temp file, synced to the medium, and renamed into place, so a
// crash mid-save leaves either the previous archive or none — never a
// truncated one that would fail manifest verification at the worst moment.
func SaveArchive(fsys faultfs.FS, path string, arch *Archive) error {
	if err := faultfs.WriteFileAtomic(fsys, path, Encode(arch), 0o600); err != nil {
		return fmt.Errorf("backup: writing archive: %w", err)
	}
	return nil
}

// LoadArchive reads and decodes an archive saved with SaveArchive.
func LoadArchive(fsys faultfs.FS, path string) (*Archive, error) {
	blob, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("backup: reading archive: %w", err)
	}
	return Decode(blob)
}
