package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"melissa/internal/enc"
)

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "proc.ckpt")
	err := Write(path, func(w *enc.Writer) {
		w.Int(42)
		w.F64Slice([]float64{1, 2, 3})
		w.String("state")
	})
	if err != nil {
		t.Fatal(err)
	}
	r, version, err := Read(path)
	if version != Version {
		t.Fatalf("version %d, want %d", version, Version)
	}
	if err != nil {
		t.Fatal(err)
	}
	if r.Int() != 42 {
		t.Fatal("int lost")
	}
	vs := r.F64Slice()
	if len(vs) != 3 || vs[2] != 3 {
		t.Fatalf("slice lost: %v", vs)
	}
	if r.String() != "state" || r.Err() != nil {
		t.Fatal("string lost")
	}
}

func TestFilenameLayout(t *testing.T) {
	got := Filename("/ckpt", 7)
	if got != "/ckpt/melissa-server-0007.ckpt" {
		t.Fatalf("filename %q", got)
	}
}

func TestExists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	if Exists(path) {
		t.Fatal("missing file exists")
	}
	if err := Write(path, func(w *enc.Writer) { w.U8(1) }); err != nil {
		t.Fatal(err)
	}
	if !Exists(path) {
		t.Fatal("written file does not exist")
	}
	if Exists(dir) {
		t.Fatal("directory reported as checkpoint")
	}
}

func TestOverwriteIsAtomicReplacement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.ckpt")
	for v := 0; v < 3; v++ {
		v := v
		if err := Write(path, func(w *enc.Writer) { w.Int(v) }); err != nil {
			t.Fatal(err)
		}
		r, _, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Int(); got != v {
			t.Fatalf("read %d after writing %d", got, v)
		}
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	if err := Write(path, func(w *enc.Writer) { w.F64Slice(make([]float64, 100)) }); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)

	cases := map[string]func([]byte) []byte{
		"truncated header": func(b []byte) []byte { return b[:8] },
		"bad magic":        func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xFF; return c },
		"bad version":      func(b []byte) []byte { c := append([]byte(nil), b...); c[4] = 99; return c },
		"flipped payload":  func(b []byte) []byte { c := append([]byte(nil), b...); c[20] ^= 0x01; return c },
		"short payload":    func(b []byte) []byte { return b[:len(b)-4] },
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

// TestReadV1File: files written by pre-quantile builds carry version 1 and
// must still load, reporting their version so decoders pick the V1 layout.
// The file is fabricated through a StreamWriter with a V1 header.
func TestReadV1File(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ckpt")
	sw, err := NewStreamWriter(path, V1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Section(func(w *enc.Writer) { w.String("old-state") }); err != nil {
		t.Fatal(err)
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
	r, version, err := Read(path)
	if err != nil {
		t.Fatalf("v1 read: %v", err)
	}
	if version != V1 {
		t.Fatalf("version %d, want %d", version, V1)
	}
	if r.String() != "old-state" || r.Err() != nil {
		t.Fatal("v1 payload lost")
	}
}

// TestReadFutureVersionRejected: a file from a newer build fails with a
// clean, explanatory error instead of being misdecoded.
func TestReadFutureVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.ckpt")
	if err := Write(path, func(w *enc.Writer) { w.U8(1) }); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[4] = ManifestVersion + 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Read(path)
	if err == nil {
		t.Fatal("future version accepted")
	}
	if !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, _, err := Read(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

func TestWriteCreatesDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deep", "nested", "p.ckpt")
	if err := Write(path, func(w *enc.Writer) { w.U8(1) }); err != nil {
		t.Fatal(err)
	}
	if !Exists(path) {
		t.Fatal("file not created in nested directory")
	}
}
