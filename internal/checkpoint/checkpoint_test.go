package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func buildSample(t *testing.T) *Builder {
	t.Helper()
	b := NewBuilder()
	if err := b.Add("meta", func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("state", func(w io.Writer) error {
		_, err := w.Write(bytes.Repeat([]byte{0xAB}, 1000))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("empty", func(io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestContainerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildSample(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Sections(); len(got) != 3 || got[0] != "meta" || got[1] != "state" || got[2] != "empty" {
		t.Fatalf("sections = %v", got)
	}
	r, err := f.Section("meta")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	if string(data) != "hello" {
		t.Fatalf("meta = %q", data)
	}
	if !f.Has("empty") || f.Has("nope") {
		t.Fatal("Has misreports sections")
	}
	if _, err := f.Section("nope"); err == nil {
		t.Fatal("missing section must error")
	}
}

func TestContainerCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildSample(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Every single-bit flip in the body must be rejected (CRC), and
	// flips in the footer too.
	for _, off := range []int{0, 9, 13, 20, 50, len(raw) - 2} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at %d not detected", off)
		}
	}
	// Truncations at every prefix length must be rejected.
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation to %d bytes not detected", cut)
		}
	}
}

// TestSectionCRCErrorNamesSectionAndOffset pins the v2 diagnosis
// contract: a flipped payload byte is localized to its section, with
// the section name and the payload's byte offset in the error, while
// errors.Is(err, ErrBadCRC) still matches for callers that only care
// that the file is corrupt.
func TestSectionCRCErrorNamesSectionAndOffset(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildSample(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Layout: 16-byte header, then per section
	// {nameLen(2), name, dataLen(8), data, crc(4)}.
	metaLen := 2 + len("meta") + 8 + len("hello") + 4
	stateOff := 16 + metaLen + 2 + len("state") + 8
	bad := append([]byte(nil), raw...)
	bad[stateOff+100] ^= 0x04 // flip a byte inside the "state" payload

	_, err := Read(bytes.NewReader(bad))
	var se *SectionError
	if !errors.As(err, &se) {
		t.Fatalf("corrupt section error = %v, want *SectionError", err)
	}
	if se.Name != "state" || se.Offset != int64(stateOff) || se.Len != 1000 {
		t.Fatalf("SectionError = %+v, want name=state offset=%d len=1000", se, stateOff)
	}
	if !errors.Is(err, ErrBadCRC) {
		t.Fatalf("SectionError does not wrap ErrBadCRC: %v", err)
	}
	for _, want := range []string{`"state"`, "offset " + itoa(stateOff)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}

	// A flip in the stored per-section CRC itself is also localized.
	bad2 := append([]byte(nil), raw...)
	bad2[16+metaLen-2] ^= 0x01 // inside meta's trailing CRC word
	_, err = Read(bytes.NewReader(bad2))
	if !errors.As(err, &se) || se.Name != "meta" {
		t.Fatalf("flipped section CRC = %v, want SectionError for meta", err)
	}

	// Header/footer corruption stays container-level.
	bad3 := append([]byte(nil), raw...)
	bad3[len(bad3)-2] ^= 0x20
	_, err = Read(bytes.NewReader(bad3))
	if !errors.Is(err, ErrBadCRC) {
		t.Fatalf("footer flip = %v, want ErrBadCRC", err)
	}
	if errors.As(err, &se) {
		t.Fatalf("footer flip misattributed to section %q", se.Name)
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// Version-1 containers (no per-section CRCs) are rejected outright.
func TestVersion1Rejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildSample(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8] = 1 // rewrite the version field to 1
	// Fix the container CRC so only the version differs.
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(body))
	_, err := Read(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 container = %v, want unsupported-version error", err)
	}
}

func TestBuilderRejectsDuplicatesAndSaveErrors(t *testing.T) {
	b := NewBuilder()
	if err := b.Add("a", func(io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("a", func(io.Writer) error { return nil }); err == nil {
		t.Fatal("duplicate section must error")
	}
	wantErr := errors.New("boom")
	err := b.Add("b", func(io.Writer) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("save error not propagated: %v", err)
	}
}

func TestRandSourceStreamMatchesStdlib(t *testing.T) {
	ref := rand.New(rand.NewSource(42))
	got := rand.New(NewRandSource(42))
	for i := 0; i < 1000; i++ {
		if a, b := ref.Float64(), got.Float64(); a != b {
			t.Fatalf("Float64 draw %d: %v != %v", i, a, b)
		}
		if a, b := ref.Intn(17), got.Intn(17); a != b {
			t.Fatalf("Intn draw %d: %d != %d", i, a, b)
		}
		if a, b := ref.NormFloat64(), got.NormFloat64(); a != b {
			t.Fatalf("NormFloat64 draw %d: %v != %v", i, a, b)
		}
	}
}

func TestRandSourceSaveRestore(t *testing.T) {
	src := NewRandSource(7)
	rng := rand.New(src)
	for i := 0; i < 12345; i++ {
		rng.Float64()
	}
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 100)
	for i := range want {
		want[i] = rng.Float64()
	}

	restored := NewRandSource(0)
	if err := restored.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if seed, draws := restored.State(); seed != 7 || draws == 0 {
		t.Fatalf("restored state seed=%d draws=%d", seed, draws)
	}
	rng2 := rand.New(restored)
	for i := range want {
		if got := rng2.Float64(); got != want[i] {
			t.Fatalf("draw %d after restore: %v != %v", i, got, want[i])
		}
	}

	if err := restored.LoadState(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("truncated RNG state must error")
	}
}
