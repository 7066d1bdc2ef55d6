package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"melissa/internal/enc"
)

// streamSections writes the canonical three-section test payload through a
// StreamWriter.
func streamSections(t *testing.T, path string) {
	t.Helper()
	sw, err := NewStreamWriter(path, Version)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Section(func(w *enc.Writer) { w.Int(42) }); err != nil {
		t.Fatal(err)
	}
	if err := sw.Section(func(w *enc.Writer) { w.F64Slice([]float64{1, 2, 3}) }); err != nil {
		t.Fatal(err)
	}
	if err := sw.Section(func(w *enc.Writer) { w.String("state") }); err != nil {
		t.Fatal(err)
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamWriterMatchesWrite: a payload streamed section by section must
// produce a file byte-identical to the one-shot Write of the concatenated
// payload — the equivalence the background checkpoint writer relies on.
func TestStreamWriterMatchesWrite(t *testing.T) {
	dir := t.TempDir()
	oneShot := filepath.Join(dir, "oneshot.ckpt")
	streamed := filepath.Join(dir, "streamed.ckpt")

	if err := Write(oneShot, func(w *enc.Writer) {
		w.Int(42)
		w.F64Slice([]float64{1, 2, 3})
		w.String("state")
	}); err != nil {
		t.Fatal(err)
	}
	streamSections(t, streamed)

	a, err := os.ReadFile(oneShot)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("streamed file differs from one-shot write (%d vs %d bytes)", len(b), len(a))
	}

	// And it reads back through the ordinary verified reader.
	r, version, err := Read(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if version != Version {
		t.Fatalf("version %d, want %d", version, Version)
	}
	if r.Int() != 42 {
		t.Fatal("int lost")
	}
}

// TestStreamWriterOverwriteIsAtomic: committing over an existing checkpoint
// replaces it atomically and leaves no temp files.
func TestStreamWriterOverwriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.ckpt")
	for v := 0; v < 3; v++ {
		sw, err := NewStreamWriter(path, Version)
		if err != nil {
			t.Fatal(err)
		}
		v := v
		if err := sw.Section(func(w *enc.Writer) { w.Int(v) }); err != nil {
			t.Fatal(err)
		}
		if err := sw.Commit(); err != nil {
			t.Fatal(err)
		}
		r, _, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Int(); got != v {
			t.Fatalf("read %d after streaming %d", got, v)
		}
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestStreamWriterAbort: aborting leaves neither the target file nor a temp.
func TestStreamWriterAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	sw, err := NewStreamWriter(path, Version)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Section(func(w *enc.Writer) { w.F64Slice(make([]float64, 1000)) }); err != nil {
		t.Fatal(err)
	}
	sw.Abort()
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("abort left %d entries behind", len(entries))
	}
}

// TestStreamWriterRejectsUnknownVersion: the writer refuses header versions
// this build does not define, on both sides of the valid range.
func TestStreamWriterRejectsUnknownVersion(t *testing.T) {
	for _, v := range []int{0, -1, Version + 1} {
		if _, err := NewStreamWriter(filepath.Join(t.TempDir(), "v.ckpt"), v); err == nil {
			t.Errorf("NewStreamWriter accepted version %d", v)
		}
	}
}

// TestStreamWriterFaultPreservesPrevious: a writer dying mid-file (fault
// injected between sections) must leave the previous complete checkpoint
// untouched and readable — the crash-consistency contract of the
// temp+rename protocol, now exercised on the streaming path.
func TestStreamWriterFaultPreservesPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.ckpt")
	streamSections(t, path)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected crash")
	SetWriteFault(func(written int64) error { return injected })
	defer SetWriteFault(nil)

	sw, err := NewStreamWriter(path, Version)
	if err != nil {
		t.Fatal(err)
	}
	err = sw.Section(func(w *enc.Writer) { w.Int(99) })
	if !errors.Is(err, injected) {
		t.Fatalf("fault not injected: %v", err)
	}
	// Poisoned writer refuses to commit; Abort cleans up.
	if err := sw.Commit(); err == nil {
		t.Fatal("poisoned writer committed")
	}
	sw.Abort()

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed write damaged the previous checkpoint")
	}
	if _, _, err := Read(path); err != nil {
		t.Fatalf("previous checkpoint unreadable after failed write: %v", err)
	}
}

// TestStreamWriterCorruptionDetected: files produced by the streaming writer
// carry the same CRC protection as one-shot writes.
func TestStreamWriterCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	streamSections(t, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"flipped payload": func(b []byte) []byte { c := append([]byte(nil), b...); c[20] ^= 0x01; return c },
		"short payload":   func(b []byte) []byte { return b[:len(b)-2] },
		"bad magic":       func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xFF; return c },
	}
	for name, corrupt := range cases {
		bad := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(bad, corrupt(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Read(bad); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// TestSweepTemps: stale temp files are removed; real checkpoints and foreign
// files are untouched; a missing directory sweeps nothing.
func TestSweepTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "melissa-server-0000.ckpt")
	if err := Write(path, func(w *enc.Writer) { w.U8(1) }); err != nil {
		t.Fatal(err)
	}
	for _, stale := range []string{".ckpt-123", ".ckpt-zzz"} {
		if err := os.WriteFile(filepath.Join(dir, stale), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "unrelated.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed, err := SweepTemps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("swept %v, want the 2 stale temps", removed)
	}
	if !Exists(path) {
		t.Fatal("sweep removed a real checkpoint")
	}
	if _, err := os.Stat(filepath.Join(dir, "unrelated.txt")); err != nil {
		t.Fatal("sweep removed a foreign file")
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("stale temp %s survived the sweep", e.Name())
		}
	}

	if removed, err := SweepTemps(filepath.Join(dir, "missing")); err != nil || removed != nil {
		t.Fatalf("missing dir sweep: %v, %v", removed, err)
	}
}
