package faults

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"resemble/internal/cas"
)

// StoreArm selects one artifact-store corruption: a way the bytes
// under a cas.Store can rot while the process is away. Each arm
// mirrors a real failure (cosmic-ray bit flip, out-of-space truncation,
// power loss mid-write, lost index update); the store's contract is
// that every one of them is detected on read, never served, and
// quarantined or repaired by the recovery sweep.
type StoreArm int

const (
	// BlobBitFlip flips a single seed-determined bit inside a blob
	// file, leaving its size and name intact.
	BlobBitFlip StoreArm = iota
	// BlobTruncate cuts a blob file to half its length — a partial
	// write the rename-based protocol itself can never produce, as
	// from media failure.
	BlobTruncate
	// TornTempFile plants a *.tmp* file beside the blob, as a write
	// interrupted by SIGKILL between CreateTemp and rename leaves.
	TornTempFile
	// IndexEntryDrop rewrites the index without the blob's entry (and
	// without tags naming it), with a valid CRC — the blob file
	// survives as an orphan the sweep must re-adopt.
	IndexEntryDrop
)

// StoreArms lists the injectable store corruptions.
func StoreArms() []StoreArm {
	return []StoreArm{BlobBitFlip, BlobTruncate, TornTempFile, IndexEntryDrop}
}

func (a StoreArm) String() string {
	switch a {
	case BlobBitFlip:
		return "blob-bitflip"
	case BlobTruncate:
		return "blob-truncate"
	case TornTempFile:
		return "torn-temp"
	case IndexEntryDrop:
		return "index-drop"
	default:
		return fmt.Sprintf("storearm(%d)", int(a))
	}
}

// ParseStoreArm parses a store-corruption arm name.
func ParseStoreArm(s string) (StoreArm, error) {
	for _, a := range StoreArms() {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown store arm %q (blob-bitflip|blob-truncate|torn-temp|index-drop)", s)
}

// blobFile returns the store's path for a blob, pinning the layout
// documented in package cas (blobs/<kind>/<first two hex>/<hex64>).
func blobFile(dir string, kind cas.Kind, id cas.ID) string {
	h := id.String()
	return filepath.Join(dir, "blobs", string(kind), h[:2], h)
}

// InjectStoreFault applies arm to the artifact store rooted at dir,
// targeting the blob (kind, id). The store must be quiescent — no
// Store operation may run concurrently with the injection, exactly as
// the real corruptions it models happen while the process is down.
// The damage is a pure function of (arm, id, seed).
func InjectStoreFault(dir string, arm StoreArm, kind cas.Kind, id cas.ID, seed int64) error {
	path := blobFile(dir, kind, id)
	switch arm {
	case BlobBitFlip:
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("faults: %s: %w", arm, err)
		}
		if len(data) == 0 {
			return fmt.Errorf("faults: %s: blob %s is empty, nothing to flip", arm, id)
		}
		// A single flip can never cancel itself out.
		return os.WriteFile(path, CorruptBytes(data, 1, seed), 0o644)

	case BlobTruncate:
		fi, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("faults: %s: %w", arm, err)
		}
		if fi.Size() == 0 {
			return fmt.Errorf("faults: %s: blob %s is empty, nothing to truncate", arm, id)
		}
		return os.Truncate(path, fi.Size()/2)

	case TornTempFile:
		// Mirror cas.WriteFileAtomic's CreateTemp pattern: <base>.tmp<suffix>
		// in the destination directory.
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("faults: %s: %w", arm, err)
		}
		torn := fmt.Sprintf("%s.tmp%d", path, seed&0xffff)
		half := append([]byte("torn "), CorruptBytes(make([]byte, 64), 32, seed)...)
		return os.WriteFile(torn, half, 0o644)

	case IndexEntryDrop:
		return dropIndexEntry(dir, id)

	default:
		return fmt.Errorf("faults: unknown store arm %v", arm)
	}
}

// dropIndexEntry rewrites the store index without the blob's "b" line
// and without any "t" line naming it, recomputing the trailing CRC so
// the file still parses — the lost-update failure, not a torn file.
// The line-oriented format (RSMCAS01 magic, b/t lines, "c <crc32-hex>"
// trailer over every byte before the c line) is documented in package
// cas and pinned by its fuzz corpus.
func dropIndexEntry(dir string, id cas.ID) error {
	idxPath := filepath.Join(dir, "index")
	raw, err := os.ReadFile(idxPath)
	if err != nil {
		return fmt.Errorf("faults: index-drop: %w", err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		return fmt.Errorf("faults: index-drop: index at %s is not a well-formed index file", idxPath)
	}
	hex := id.String()
	lines := strings.Split(string(raw[:len(raw)-1]), "\n")
	var kept []string
	dropped := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "c ") {
			continue // recomputed below
		}
		fields := strings.Split(line, " ")
		if len(fields) >= 2 && (fields[0] == "b" || fields[0] == "t") && fields[1] == hex {
			dropped++
			continue
		}
		kept = append(kept, line)
	}
	if dropped == 0 {
		return fmt.Errorf("faults: index-drop: blob %s has no index entry to drop", id)
	}
	body := strings.Join(kept, "\n") + "\n"
	body += fmt.Sprintf("c %08x\n", crc32.ChecksumIEEE([]byte(body)))
	return os.WriteFile(idxPath, []byte(body), 0o644)
}
