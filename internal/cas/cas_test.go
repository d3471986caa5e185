package cas

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string) (*Store, SweepReport) {
	t.Helper()
	s, rep, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rep
}

func TestPutGetRoundTrip(t *testing.T) {
	s, rep := mustOpen(t, t.TempDir())
	if !rep.Clean() {
		t.Fatalf("fresh store sweep not clean: %v", rep)
	}
	data := []byte("the quick brown fox")
	id, err := s.Put(KindTrace, data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if id != Sum(data) {
		t.Fatalf("Put returned ID %s, want %s", id, Sum(data))
	}
	got, kind, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) || kind != KindTrace {
		t.Fatalf("Get = (%q, %s), want (%q, %s)", got, kind, data, KindTrace)
	}
}

func TestPutDeduplicates(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	data := []byte("same bytes twice")
	id1, err := s.Put(KindModel, data)
	if err != nil {
		t.Fatalf("Put 1: %v", err)
	}
	id2, err := s.Put(KindModel, data)
	if err != nil {
		t.Fatalf("Put 2: %v", err)
	}
	if id1 != id2 {
		t.Fatalf("dedup broken: %s != %s", id1, id2)
	}
	st := s.Stats()
	if st.Blobs != 1 || st.PutDedups != 1 {
		t.Fatalf("stats = %+v, want 1 blob and 1 dedup", st)
	}
	// Same content under a different kind is a caller bug, not a
	// second blob.
	if _, err := s.Put(KindTrace, data); err == nil {
		t.Fatal("cross-kind Put of identical bytes unexpectedly succeeded")
	}
}

func TestGetUnknownID(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	_, _, err := s.Get(Sum([]byte("never stored")))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown = %v, want ErrNotFound", err)
	}
}

// The index is authoritative: a valid blob file on disk with no index
// entry must not be served until a sweep re-adopts it.
func TestIndexAuthoritative(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	data := []byte("orphan-to-be")
	id := Sum(data)
	// Plant the blob file directly, bypassing Put.
	path := s.blobPath(KindTrace, id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unindexed blob served: err=%v, want ErrNotFound", err)
	}
	// Reopen: the sweep verifies and adopts the orphan.
	s2, rep := mustOpen(t, dir)
	if rep.Adopted != 1 {
		t.Fatalf("sweep adopted %d, want 1 (%v)", rep.Adopted, rep)
	}
	got, kind, err := s2.Get(id)
	if err != nil || !bytes.Equal(got, data) || kind != KindTrace {
		t.Fatalf("adopted blob Get = (%q, %s, %v)", got, kind, err)
	}
}

func TestCorruptBlobQuarantinedOnGet(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	data := []byte("soon to be flipped")
	id, err := s.Put(KindCheckpoint, data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the stored blob behind the store's back.
	path := s.blobPath(KindCheckpoint, id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Get(id)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get corrupt blob = %v, want ErrCorrupt", err)
	}
	// The blob is gone from serving and sits in quarantine.
	if s.Has(id) {
		t.Fatal("corrupt blob still indexed after Get")
	}
	q, err := filepath.Glob(filepath.Join(dir, "quarantine", "*hash-mismatch*"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine glob = (%v, %v), want exactly one file", q, err)
	}
	// A second Get is a plain miss, not another quarantine.
	if _, _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Get = %v, want ErrNotFound", err)
	}
}

func TestTagsResolveAndUntag(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	id, err := s.Put(KindModel, []byte("weights"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Tag("model/dqn/latest", id); err != nil {
		t.Fatalf("Tag: %v", err)
	}
	got, ok := s.Resolve("model/dqn/latest")
	if !ok || got != id {
		t.Fatalf("Resolve = (%s, %v), want (%s, true)", got, ok, id)
	}
	if err := s.Tag("bad name", id); err == nil {
		t.Fatal("Tag with whitespace accepted")
	}
	if err := s.Tag("model/none", Sum([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Tag unknown blob = %v, want ErrNotFound", err)
	}
	removed, err := s.Untag("model/dqn/latest")
	if err != nil || !removed {
		t.Fatalf("Untag = (%v, %v)", removed, err)
	}
	if _, ok := s.Resolve("model/dqn/latest"); ok {
		t.Fatal("tag survived Untag")
	}
}

func TestUntagPrefixAndTagsListing(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	id, err := s.Put(KindCheckpoint, []byte("ckp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ckp/run1/100", "ckp/run1/200", "ckp/run2/100"} {
		if err := s.Tag(name, id); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Tags("ckp/run1/")
	if len(got) != 2 || got[0] != "ckp/run1/100" || got[1] != "ckp/run1/200" {
		t.Fatalf("Tags(ckp/run1/) = %v", got)
	}
	n, err := s.UntagPrefix("ckp/run1/")
	if err != nil || n != 2 {
		t.Fatalf("UntagPrefix = (%d, %v), want 2", n, err)
	}
	if left := s.Tags("ckp/"); len(left) != 1 || left[0] != "ckp/run2/100" {
		t.Fatalf("tags after UntagPrefix = %v", left)
	}
}

func TestGCRespectsRefsAndTags(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	loose, err := s.Put(KindTrace, []byte("loose"))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := s.Put(KindTrace, []byte("pinned"))
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := s.PutTagged(KindTrace, []byte("tagged"), "keep/me")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRef(pinned); err != nil {
		t.Fatal(err)
	}
	removed, freed, err := s.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if removed != 1 || freed != int64(len("loose")) {
		t.Fatalf("GC removed %d blobs / %d bytes, want 1 / %d", removed, freed, len("loose"))
	}
	if s.Has(loose) || !s.Has(pinned) || !s.Has(tagged) {
		t.Fatalf("GC kept wrong set: loose=%v pinned=%v tagged=%v", s.Has(loose), s.Has(pinned), s.Has(tagged))
	}
	// Releasing the ref and untagging makes both collectable.
	if err := s.Release(pinned); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Untag("keep/me"); err != nil {
		t.Fatal(err)
	}
	removed, _, err = s.GC()
	if err != nil || removed != 2 {
		t.Fatalf("second GC = (%d, %v), want 2 removed", removed, err)
	}
	if st := s.Stats(); st.Blobs != 0 || st.Bytes != 0 {
		t.Fatalf("stats after full GC = %+v", st)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	id, err := s.PutTagged(KindModel, []byte("durable weights"), "model/latest")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRef(id); err != nil {
		t.Fatal(err)
	}
	s2, rep := mustOpen(t, dir)
	if !rep.Clean() {
		t.Fatalf("reopen sweep not clean: %v", rep)
	}
	got, ok := s2.Resolve("model/latest")
	if !ok || got != id {
		t.Fatalf("tag lost across reopen: (%s, %v)", got, ok)
	}
	if _, _, refs, err := s2.Stat(id); err != nil || refs != 1 {
		t.Fatalf("refcount lost across reopen: refs=%d err=%v", refs, err)
	}
}

func TestParseIDRejectsBadInput(t *testing.T) {
	for _, bad := range []string{"", "abc", "zz" + Sum(nil).String()[2:], Sum(nil).String() + "00"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
	id := Sum([]byte("x"))
	back, err := ParseID(id.String())
	if err != nil || back != id {
		t.Fatalf("ParseID round-trip: (%s, %v)", back, err)
	}
}

func TestConcurrentPutGetTagGC(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 25; i++ {
				data := []byte(fmt.Sprintf("worker %d blob %d", w, i))
				var id ID
				if id, err = s.PutTagged(KindTrace, data, fmt.Sprintf("w%d/i%d", w, i)); err != nil {
					break
				}
				var got []byte
				if got, _, err = s.Get(id); err != nil {
					break
				}
				if !bytes.Equal(got, data) {
					err = fmt.Errorf("round-trip mismatch for %s", id)
					break
				}
			}
			done <- err
		}(w)
	}
	for g := 0; g < 4; g++ {
		go func() {
			var err error
			for i := 0; i < 10; i++ {
				if _, _, err = s.GC(); err != nil {
					break
				}
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Every tagged blob must have survived the concurrent GCs.
	for w := 0; w < 4; w++ {
		for i := 0; i < 25; i++ {
			id, ok := s.Resolve(fmt.Sprintf("w%d/i%d", w, i))
			if !ok || !s.Has(id) {
				t.Fatalf("tagged blob w%d/i%d lost (ok=%v)", w, i, ok)
			}
		}
	}
}

// TestWriteFileAtomic: an overwrite replaces the file whole and leaves
// no temp file behind, and a write that fails leaves the previous file
// byte-identical.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := WriteFileAtomic(path, []byte("first checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second" {
		t.Fatalf("after overwrite: %q, %v; want %q", got, err, "second")
	}
	assertNoTemps(t, dir)

	t.Run("failed write keeps the previous file", func(t *testing.T) {
		// A name that fits NAME_MAX while its temp sibling
		// (<name>.tmp<digits>) does not: the temp file cannot be
		// created, so the write fails before touching the destination.
		dir := t.TempDir()
		path := filepath.Join(dir, strings.Repeat("c", 250))
		prev := []byte("the last good checkpoint")
		if err := os.WriteFile(path, prev, 0o644); err != nil {
			t.Skipf("filesystem rejects a 250-byte name: %v", err)
		}
		if err := WriteFileAtomic(path, []byte("replacement")); err == nil {
			t.Fatal("write with an over-long temp name succeeded")
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, prev) {
			t.Fatalf("previous file after a failed write: %q, %v; want %q", got, err, prev)
		}
		assertNoTemps(t, dir)
	})
	t.Run("parent directories are created", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "a", "b", "run.ckpt")
		if err := WriteFileAtomic(path, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "x" {
			t.Fatalf("nested write: %q, %v", got, err)
		}
	})
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}
