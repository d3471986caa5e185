package faults

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"resemble/internal/checkpoint"
	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/trace"
)

// nextLine suggests the line after the accessed one — a trivially
// correct prefetcher for sequential streams, with deterministic state.
type nextLine struct {
	n int
}

func (p *nextLine) Name() string  { return "nextline" }
func (p *nextLine) Spatial() bool { return true }
func (p *nextLine) Reset()        { p.n = 0 }
func (p *nextLine) Observe(a prefetch.AccessContext) []prefetch.Suggestion {
	p.n++
	return []prefetch.Suggestion{{Line: a.Line + 1, Confidence: 1}}
}

func (p *nextLine) SaveState(w io.Writer) error { return writeGob(w, p.n) }
func (p *nextLine) LoadState(r io.Reader) error { return readGob(r, &p.n) }

func access(i int) prefetch.AccessContext {
	return prefetch.AccessContext{Index: i, Line: mem.Line(100 + i)}
}

func collect(f *Prefetcher, n int) [][]prefetch.Suggestion {
	out := make([][]prefetch.Suggestion, n)
	for i := 0; i < n; i++ {
		sugs := f.Observe(access(i))
		out[i] = append([]prefetch.Suggestion(nil), sugs...)
	}
	return out
}

func TestFaultModes(t *testing.T) {
	t.Run("silent", func(t *testing.T) {
		f := Wrap(&nextLine{}, Config{Mode: Silent, Start: 3})
		got := collect(f, 10)
		for i := 0; i < 3; i++ {
			if len(got[i]) != 1 || got[i][0].Line != mem.Line(101+i) {
				t.Fatalf("access %d before Start altered: %v", i, got[i])
			}
		}
		for i := 3; i < 10; i++ {
			if len(got[i]) != 0 {
				t.Fatalf("silent fault leaked suggestions at %d: %v", i, got[i])
			}
		}
		if f.Injected() != 7 {
			t.Fatalf("injected = %d, want 7", f.Injected())
		}
	})

	t.Run("stuck", func(t *testing.T) {
		f := Wrap(&nextLine{}, Config{Mode: Stuck})
		got := collect(f, 10)
		// First suggestion is latched before the fault engages output 0;
		// with Start=0 the fault is active from access index 1 on.
		if got[0] == nil {
			t.Fatal("no healthy output to latch")
		}
		want := got[1][0].Line
		for i := 2; i < 10; i++ {
			if len(got[i]) != 1 || got[i][0].Line != want {
				t.Fatalf("stuck output drifted at %d: %v (want line %d)", i, got[i], want)
			}
		}
	})

	t.Run("noisy", func(t *testing.T) {
		f := Wrap(&nextLine{}, Config{Mode: Noisy, Seed: 9, Degree: 3})
		got := collect(f, 10)
		for i := 1; i < 10; i++ {
			if len(got[i]) != 3 {
				t.Fatalf("noisy degree at %d: %d suggestions", i, len(got[i]))
			}
			if got[i][0].Line == mem.Line(101+i) {
				t.Fatalf("noisy output at %d suspiciously equals healthy output", i)
			}
		}
	})

	t.Run("intermittent", func(t *testing.T) {
		f := Wrap(&nextLine{}, Config{Mode: Intermittent, Seed: 9, Period: 4})
		got := collect(f, 16)
		healthy := func(i int) bool {
			return len(got[i]) == 1 && got[i][0].Line == mem.Line(101+i)
		}
		// With Start=0 and Period=4, accesses 1..4 (collect indices
		// 0..3) are the healthy phase, 5..8 broken, 9..12 healthy again.
		for i := 0; i <= 3; i++ {
			if !healthy(i) {
				t.Fatalf("access %d should be in healthy phase: %v", i, got[i])
			}
		}
		for i := 4; i <= 7; i++ {
			if healthy(i) {
				t.Fatalf("access %d should be in broken phase: %v", i, got[i])
			}
		}
		for i := 8; i <= 11; i++ {
			if !healthy(i) {
				t.Fatalf("access %d should be back to healthy: %v", i, got[i])
			}
		}
	})

	t.Run("none", func(t *testing.T) {
		f := Wrap(&nextLine{}, Config{Mode: None})
		got := collect(f, 5)
		for i := range got {
			if len(got[i]) != 1 || got[i][0].Line != mem.Line(101+i) {
				t.Fatalf("transparent wrap altered access %d: %v", i, got[i])
			}
		}
		if f.Injected() != 0 {
			t.Fatalf("injected = %d, want 0", f.Injected())
		}
	})
}

func TestFaultDeterminism(t *testing.T) {
	for _, mode := range Modes() {
		a := Wrap(&nextLine{}, Config{Mode: mode, Seed: 123})
		b := Wrap(&nextLine{}, Config{Mode: mode, Seed: 123})
		ga, gb := collect(a, 500), collect(b, 500)
		for i := range ga {
			if len(ga[i]) != len(gb[i]) {
				t.Fatalf("%v: length diverged at %d", mode, i)
			}
			for j := range ga[i] {
				if ga[i][j] != gb[i][j] {
					t.Fatalf("%v: suggestion diverged at %d/%d", mode, i, j)
				}
			}
		}
		// Reset must reproduce the same stream again.
		a.Reset()
		gr := collect(a, 500)
		for i := range gr {
			for j := range gr[i] {
				if gr[i][j] != gb[i][j] {
					t.Fatalf("%v: post-Reset stream diverged at %d/%d", mode, i, j)
				}
			}
		}
	}
}

func TestFaultInnerKeepsTraining(t *testing.T) {
	inner := &nextLine{}
	f := Wrap(inner, Config{Mode: Silent})
	collect(f, 50)
	if inner.n != 50 {
		t.Fatalf("inner prefetcher observed %d accesses, want 50", inner.n)
	}
}

func TestFaultSaveLoadState(t *testing.T) {
	for _, mode := range Modes() {
		// Uninterrupted reference stream.
		ref := collect(Wrap(&nextLine{}, Config{Mode: mode, Seed: 55}), 300)

		// Snapshot a twin mid-stream, restore into a fresh wrapper and
		// check the continuation matches the uninterrupted reference.
		twin := Wrap(&nextLine{}, Config{Mode: mode, Seed: 55})
		collect(twin, 200)
		var buf bytes.Buffer
		if err := twin.SaveState(&buf); err != nil {
			t.Fatalf("%v: save: %v", mode, err)
		}
		fresh := Wrap(&nextLine{}, Config{Mode: mode, Seed: 55})
		if err := fresh.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%v: load: %v", mode, err)
		}
		for i := 200; i < 300; i++ {
			sugs := fresh.Observe(access(i))
			want := ref[i]
			if len(sugs) != len(want) {
				t.Fatalf("%v: resumed length diverged at %d", mode, i)
			}
			for j := range sugs {
				if sugs[j] != want[j] {
					t.Fatalf("%v: resumed suggestion diverged at %d/%d", mode, i, j)
				}
			}
		}

		if err := fresh.LoadState(bytes.NewReader([]byte{0x01})); err == nil {
			t.Fatalf("%v: truncated state must error", mode)
		}
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range append([]Mode{None}, Modes()...) {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("wedged"); err == nil {
		t.Fatal("unknown mode must error")
	}
}

func TestCorruptBytes(t *testing.T) {
	data := bytes.Repeat([]byte{0x00}, 256)
	a := CorruptBytes(data, 8, 1)
	b := CorruptBytes(data, 8, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("CorruptBytes not deterministic for equal seeds")
	}
	if bytes.Equal(a, data) {
		t.Fatal("CorruptBytes changed nothing")
	}
	for i := range data {
		if data[i] != 0 {
			t.Fatal("CorruptBytes mutated its input")
		}
	}
	if got := CorruptBytes(nil, 4, 1); len(got) != 0 {
		t.Fatalf("CorruptBytes(nil) = %v", got)
	}
}

func TestCorruptRecords(t *testing.T) {
	tr := &trace.Trace{Name: "t"}
	for i := 0; i < 1000; i++ {
		tr.Append(uint64(0x400000+i%7), uint64(0x1000+64*i), 3)
	}
	out := CorruptRecords(tr, 0.1, 42)
	if out.Len() != tr.Len() {
		t.Fatalf("record count changed: %d != %d", out.Len(), tr.Len())
	}
	changed := 0
	for i := range tr.Records {
		if out.Records[i].ID != tr.Records[i].ID || out.Records[i].Gap != tr.Records[i].Gap {
			t.Fatalf("ID/Gap mutated at %d", i)
		}
		if out.Records[i] != tr.Records[i] {
			changed++
		}
	}
	if changed < 50 || changed > 200 {
		t.Fatalf("corrupted %d of 1000 records at rate 0.1", changed)
	}
	again := CorruptRecords(tr, 0.1, 42)
	for i := range out.Records {
		if out.Records[i] != again.Records[i] {
			t.Fatalf("CorruptRecords not deterministic at %d", i)
		}
	}
	clean := CorruptRecords(tr, 0, 42)
	for i := range clean.Records {
		if clean.Records[i] != tr.Records[i] {
			t.Fatalf("rate 0 mutated record %d", i)
		}
	}
}

func TestFailingWriter(t *testing.T) {
	var buf bytes.Buffer
	wantErr := errors.New("disk full")
	fw := &FailingWriter{W: &buf, FailAfter: 2, Err: wantErr}
	for i := 0; i < 2; i++ {
		if _, err := fw.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d failed early: %v", i, err)
		}
	}
	if _, err := fw.Write([]byte("boom")); !errors.Is(err, wantErr) {
		t.Fatalf("expected injected error, got %v", err)
	}
	if buf.String() != "okok" {
		t.Fatalf("buffer = %q", buf.String())
	}
	fwDefault := &FailingWriter{W: io.Discard}
	if _, err := fwDefault.Write([]byte("x")); err == nil {
		t.Fatal("FailAfter=0 must fail immediately")
	}
}

// TestFailingWriterPartialWrites: a writer that dies mid-container
// fails the checkpoint serialization and leaves a torn prefix that the
// container reader rejects — the device fault the helper exists to
// simulate — while an unwrapped write of the same builder round-trips.
func TestFailingWriterPartialWrites(t *testing.T) {
	b := checkpoint.NewBuilder()
	if err := b.Add("payload", func(w io.Writer) error {
		_, err := w.Write([]byte("some checkpoint section data"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var torn bytes.Buffer
	if _, err := b.WriteTo(&FailingWriter{W: &torn, FailAfter: 2}); err == nil {
		t.Fatal("serialization through a writer that dies mid-container succeeded")
	}
	if torn.Len() == 0 {
		t.Fatal("FailAfter=2 let no bytes through")
	}
	if _, err := checkpoint.Read(bytes.NewReader(torn.Bytes())); err == nil {
		t.Fatal("a torn container parsed")
	}
	var whole bytes.Buffer
	if _, err := b.WriteTo(&whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(whole.Bytes(), torn.Bytes()) {
		t.Fatal("the torn stream is not a prefix of the full container")
	}
	if _, err := checkpoint.Read(bytes.NewReader(whole.Bytes())); err != nil {
		t.Fatalf("full container: %v", err)
	}
}
