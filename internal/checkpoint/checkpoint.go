// Package checkpoint implements fault-tolerant run snapshots: a
// versioned, sectioned container sealed with a CRC32 footer, plus the
// Stater interface
// every checkpointable component implements and a draw-counting RNG
// source whose state is a (seed, draws) pair.
//
// A checkpoint is assembled by the simulator's resumable run loop
// (internal/sim): it gathers one named section per component — the
// trace cursor, the simulator/cache state, the prefetch source
// (controller plus input prefetchers) and the telemetry collector —
// and serializes them as one container, which the run hands to its
// checkpoint sink (the artifact store, or the CLI's checkpoint file —
// both land bytes with cas.WriteFileAtomic). On resume the sections
// are handed back to the same components, which restore themselves
// exactly; an
// interrupted-and-resumed run is byte-identical to an uninterrupted
// one (see the determinism tests).
//
// File format (little-endian):
//
//	magic    [8]byte  "RSMCKP01"
//	version  uint32   (2)
//	nsect    uint32
//	sections nsect × { nameLen uint16, name, dataLen uint64, data,
//	                   crc uint32 — IEEE CRC32 of name + data }
//	crc      uint32   IEEE CRC32 of every preceding byte
//
// The container CRC detects any corruption; the per-section CRCs
// localize it, so a CRC-mismatch error names the failing section and
// its byte offset (SectionError) instead of reporting the container as
// a whole.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the current checkpoint format version. Version 2 added
// per-section CRCs; version-1 files (which lack them) are rejected —
// checkpoints are ephemeral run state, not an archival format.
const Version = 2

var ckpMagic = [8]byte{'R', 'S', 'M', 'C', 'K', 'P', '0', '1'}

// Errors returned when opening a corrupt or incompatible checkpoint.
var (
	ErrBadMagic = errors.New("checkpoint: bad magic")
	ErrBadCRC   = errors.New("checkpoint: CRC mismatch (file corrupt or truncated)")
)

// SectionError reports corruption localized to one section: its name
// and the absolute byte offset of the section's payload in the file.
// It wraps ErrBadCRC, so errors.Is(err, ErrBadCRC) still matches.
type SectionError struct {
	Name   string // section whose CRC failed
	Offset int64  // byte offset of the section's payload
	Len    int64  // payload length in bytes
}

func (e *SectionError) Error() string {
	return fmt.Sprintf("checkpoint: section %q: CRC mismatch at byte offset %d (%d-byte payload)", e.Name, e.Offset, e.Len)
}

func (e *SectionError) Unwrap() error { return ErrBadCRC }

// Stater is implemented by every component that can snapshot its
// complete run state into a checkpoint section and restore it later.
// LoadState must either restore fully or leave the component usable;
// a failed load must never panic.
type Stater interface {
	SaveState(w io.Writer) error
	LoadState(r io.Reader) error
}

// maxSectionName bounds section names; maxSectionSize bounds one
// section's payload (1 GiB — far above any real state, small enough to
// reject a corrupt length before allocating).
const (
	maxSectionName = 1 << 10
	maxSectionSize = 1 << 30
)

// Builder assembles a checkpoint in memory before serializing it in
// one WriteTo.
type Builder struct {
	names []string
	data  [][]byte
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Add appends a named section whose payload is produced by save.
// Section names must be unique and non-empty.
func (b *Builder) Add(name string, save func(io.Writer) error) error {
	if name == "" || len(name) > maxSectionName {
		return fmt.Errorf("checkpoint: invalid section name %q", name)
	}
	for _, n := range b.names {
		if n == name {
			return fmt.Errorf("checkpoint: duplicate section %q", name)
		}
	}
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return fmt.Errorf("checkpoint: section %q: %w", name, err)
	}
	if buf.Len() > maxSectionSize {
		return fmt.Errorf("checkpoint: section %q exceeds %d bytes", name, maxSectionSize)
	}
	b.names = append(b.names, name)
	b.data = append(b.data, buf.Bytes())
	return nil
}

// WriteTo writes the container, including the CRC footer, to w.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	var n int64
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(mw.Write(ckpMagic[:])); err != nil {
		return n, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], Version)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(b.names)))
	if err := count(mw.Write(hdr[:])); err != nil {
		return n, err
	}
	for i, name := range b.names {
		var nl [2]byte
		binary.LittleEndian.PutUint16(nl[:], uint16(len(name)))
		if err := count(mw.Write(nl[:])); err != nil {
			return n, err
		}
		if err := count(io.WriteString(mw, name)); err != nil {
			return n, err
		}
		var dl [8]byte
		binary.LittleEndian.PutUint64(dl[:], uint64(len(b.data[i])))
		if err := count(mw.Write(dl[:])); err != nil {
			return n, err
		}
		if err := count(mw.Write(b.data[i])); err != nil {
			return n, err
		}
		sc := crc32.NewIEEE()
		sc.Write([]byte(name))
		sc.Write(b.data[i])
		var scb [4]byte
		binary.LittleEndian.PutUint32(scb[:], sc.Sum32())
		if err := count(mw.Write(scb[:])); err != nil {
			return n, err
		}
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc.Sum32())
	return n, count(w.Write(foot[:]))
}

// File is a parsed checkpoint.
type File struct {
	version  uint32
	names    []string
	sections map[string][]byte
}

// Read parses a checkpoint from r, validating the magic, version,
// per-section CRCs and the container CRC before returning any section.
// When corruption is localized to one section's bytes the error is a
// *SectionError naming the section and byte offset; corruption the
// sections cannot localize (header, footer, structure) reports
// container-level ErrBadCRC.
func Read(r io.Reader) (*File, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(raw) < len(ckpMagic)+8+4 {
		return nil, ErrBadCRC
	}
	if !bytes.Equal(raw[:8], ckpMagic[:]) {
		return nil, ErrBadMagic
	}
	body, foot := raw[:len(raw)-4], raw[len(raw)-4:]
	crcOK := crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(foot)
	f, perr := parseBody(body)
	if perr != nil {
		// A per-section CRC pinpoints the damage even when the
		// container CRC also failed; anything else under a failed
		// container CRC is reported container-level (the structure
		// itself cannot be trusted).
		var se *SectionError
		if errors.As(perr, &se) || crcOK {
			return nil, perr
		}
		return nil, ErrBadCRC
	}
	if !crcOK {
		return nil, ErrBadCRC
	}
	return f, nil
}

// parseBody decodes the container body (everything before the footer),
// verifying each section's CRC as it goes.
func parseBody(body []byte) (*File, error) {
	f := &File{sections: make(map[string][]byte)}
	f.version = binary.LittleEndian.Uint32(body[8:12])
	if f.version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", f.version, Version)
	}
	nsect := binary.LittleEndian.Uint32(body[12:16])
	off := 16
	for i := uint32(0); i < nsect; i++ {
		if off+2 > len(body) {
			return nil, ErrBadCRC
		}
		nl := int(binary.LittleEndian.Uint16(body[off : off+2]))
		off += 2
		if nl == 0 || nl > maxSectionName || off+nl > len(body) {
			return nil, fmt.Errorf("checkpoint: section %d: bad name length %d", i, nl)
		}
		name := string(body[off : off+nl])
		off += nl
		if _, dup := f.sections[name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate section %q", name)
		}
		if off+8 > len(body) {
			return nil, ErrBadCRC
		}
		dl := binary.LittleEndian.Uint64(body[off : off+8])
		off += 8
		if dl > maxSectionSize || off+int(dl)+4 > len(body) {
			return nil, fmt.Errorf("checkpoint: section %q: bad length %d", name, dl)
		}
		payload := body[off : off+int(dl)]
		sc := crc32.NewIEEE()
		sc.Write([]byte(name))
		sc.Write(payload)
		if got := binary.LittleEndian.Uint32(body[off+int(dl) : off+int(dl)+4]); got != sc.Sum32() {
			return nil, &SectionError{Name: name, Offset: int64(off), Len: int64(dl)}
		}
		f.names = append(f.names, name)
		f.sections[name] = payload
		off += int(dl) + 4
	}
	if off != len(body) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after last section", len(body)-off)
	}
	return f, nil
}

// Version returns the parsed format version.
func (f *File) Version() uint32 { return f.version }

// Sections returns the section names in file order.
func (f *File) Sections() []string { return append([]string(nil), f.names...) }

// Has reports whether a named section is present.
func (f *File) Has(name string) bool {
	_, ok := f.sections[name]
	return ok
}

// Section returns a reader over a named section's payload.
func (f *File) Section(name string) (io.Reader, error) {
	data, ok := f.sections[name]
	if !ok {
		return nil, fmt.Errorf("checkpoint: missing section %q", name)
	}
	return bytes.NewReader(data), nil
}

// Load hands a named section to load, typically a Stater's LoadState.
func (f *File) Load(name string, load func(io.Reader) error) error {
	r, err := f.Section(name)
	if err != nil {
		return err
	}
	if err := load(r); err != nil {
		return fmt.Errorf("checkpoint: section %q: %w", name, err)
	}
	return nil
}
