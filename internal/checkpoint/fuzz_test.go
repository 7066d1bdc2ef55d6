package checkpoint

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"testing"

	"melissa/internal/enc"
)

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls. Small allocations are accounted a span at a time, so a single
// run may be off by tens of KiB; large ones are exact. It reads the
// runtime's cumulative allocation metric, which, unlike ReadMemStats, does
// not stop the world, so every fuzz exec can afford it.
func allocBytes(runs int, f func()) int {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	for i := 0; i < runs; i++ {
		f()
	}
	metrics.Read(sample)
	return int((sample[0].Value.Uint64() - before) / uint64(runs))
}

// FuzzCheckpointRead feeds arbitrary file contents to Read. No input may
// panic; a rejected file returns a clean "checkpoint:" error and nothing
// else; an accepted one has the magic, a version this build reads, a length
// field matching the payload and a matching CRC. A single file's reader
// covers exactly that payload; a manifest's covers the Version image it
// assembles, which its segments on disk must hold. Read may allocate at
// most twice the file and the segments beside it plus 64 KiB: neither the
// header's length field nor a manifest's counts, offsets and lengths ever
// size an allocation. The corpus holds a manifest of two commits whose
// segments stay in the directory, so mutations reach every manifest field.
func FuzzCheckpointRead(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "fuzz.ckpt")
	seed := func(name string, version int, fill func(w *enc.Writer)) {
		path := filepath.Join(dir, name)
		sw, err := NewStreamWriter(path, version)
		if err != nil {
			f.Fatal(err)
		}
		if err := sw.Section(fill); err != nil {
			f.Fatal(err)
		}
		if err := sw.Commit(); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed("v4.ckpt", Version, func(w *enc.Writer) {
		w.Int(42)
		w.F64Slice([]float64{1, 2, 3})
		w.String("state")
	})
	seed("v1.ckpt", V1, func(w *enc.Writer) { w.String("old-state") })
	seed("empty.ckpt", Version, func(*enc.Writer) {})
	f.Add([]byte{})
	f.Add([]byte("MLSA"))
	bomb := make([]byte, 16) // a header whose length field the file cannot hold
	binary.LittleEndian.PutUint32(bomb, magic)
	binary.LittleEndian.PutUint32(bomb[4:], Version)
	binary.LittleEndian.PutUint32(bomb[12:], 1<<31)
	f.Add(bomb)

	// A manifest whose second commit kept one of three steps.
	l := NewLog(path)
	for _, counts := range [][]int64{{1, 1, 1}, {2, 1, 2}} {
		cm := l.Begin(len(counts))
		for step, n := range counts {
			cm.Step(n, func(w *enc.Writer) { w.String(strings.Repeat("s", 10*step+int(n))) })
		}
		if _, err := cm.Commit([]byte("head"), []byte("tracker")); err != nil {
			f.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	var segBytes int
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), segInfix) {
			info, _ := e.Info()
			segBytes += int(info.Size())
		}
	}

	// Each input is written in place through one handle: truncating a file
	// to zero and writing it again makes ext4 flush it on close, ~0.3 ms an
	// exec.
	file, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if _, err := file.WriteAt(raw, 0); err != nil {
			t.Fatal(err)
		}
		if err := file.Truncate(int64(len(raw))); err != nil {
			t.Fatal(err)
		}
		var r *enc.Reader
		var version int
		var err error
		got := allocBytes(1, func() { r, version, err = Read(path) })
		if limit := 2*(len(raw)+segBytes) + 64<<10; got > limit {
			// One run can be charged for a span filled before it; confirm
			// over many.
			if got = allocBytes(32, func() { Read(path) }); got > limit {
				t.Fatalf("reading a %d-byte file allocated %d (limit %d)", len(raw), got, limit)
			}
		}
		if err != nil {
			if r != nil || version != 0 || !strings.HasPrefix(err.Error(), "checkpoint: ") {
				t.Fatalf("rejection returned reader %v, version %d, error %q", r, version, err)
			}
			return
		}
		le := binary.LittleEndian
		manifest := len(raw) >= 16 && le.Uint32(raw[4:]) == ManifestVersion
		switch {
		case len(raw) < 16:
			t.Fatalf("accepted a %d-byte file", len(raw))
		case le.Uint32(raw) != magic:
			t.Fatalf("accepted magic %#x", le.Uint32(raw))
		case !manifest && (version != int(le.Uint32(raw[4:])) || version < V1 || version > Version):
			t.Fatalf("accepted version %d (header %d)", version, le.Uint32(raw[4:]))
		case manifest && version != Version:
			t.Fatalf("a manifest read as version %d", version)
		case int(le.Uint32(raw[12:])) != len(raw)-16:
			t.Fatalf("accepted length field %d for a %d-byte payload", le.Uint32(raw[12:]), len(raw)-16)
		case crc32.ChecksumIEEE(raw[16:]) != le.Uint32(raw[8:]):
			t.Fatal("accepted a CRC mismatch")
		case !manifest && r.Remaining() != len(raw)-16:
			t.Fatalf("reader covers %d bytes of a %d-byte payload", r.Remaining(), len(raw)-16)
		case manifest && r.Remaining() > len(raw)-16+segBytes:
			t.Fatalf("a %d-byte manifest assembled %d bytes from %d segment bytes", len(raw), r.Remaining(), segBytes)
		}
	})
}
