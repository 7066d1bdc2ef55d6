package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"melissa/internal/enc"
)

// section is the test image's step-t section at group count n: a few bytes
// that differ with both, longer for later steps.
func section(t int, n int64) []byte {
	return []byte(strings.Repeat(fmt.Sprintf("step %d n %d;", t, n), t+1))
}

// logImage is the image a commit of counts (with head and tail) describes.
func logImage(head, tail []byte, counts []int64) []byte {
	img := slices.Clone(head)
	for t, n := range counts {
		img = append(img, section(t, n)...)
	}
	return append(img, tail...)
}

// commitCounts commits counts through l, handing Step a section for the
// steps whose count differs from base (all of them for a nil base), the way
// the server hands it the steps its snapshot copied.
func commitCounts(t *testing.T, l *Log, base, counts []int64, head, tail []byte) Committed {
	t.Helper()
	cm := l.Begin(len(counts))
	for step, n := range counts {
		var fill func(*enc.Writer)
		if base == nil || base[step] != n {
			fill = func(w *enc.Writer) { w.Raw(section(step, n)) }
		}
		if err := cm.Step(n, fill); err != nil {
			cm.Abort()
			t.Fatal(err)
		}
	}
	res, err := cm.Commit(head, tail)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// segments lists the segment files in dir.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if _, _, ok := parseSegmentName(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

func mustImage(t *testing.T, path string, want []byte) {
	t.Helper()
	img, version, err := ReadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if version != Version || !bytes.Equal(img, want) {
		t.Fatalf("image v%d of %d bytes, want v%d of %d bytes", version, len(img), Version, len(want))
	}
}

// TestLogWritesOnlyChangedSteps: a commit writes the steps whose count
// changed into one new segment and points the manifest at the committed
// sections of the rest; the assembled image is always the full one. A
// commit where nothing changed writes nothing, a tail-only change writes
// only the manifest, and a segment goes once no durable manifest names it.
func TestLogWritesOnlyChangedSteps(t *testing.T) {
	dir := t.TempDir()
	path := Filename(dir, 3)
	head, tail := []byte("head"), []byte("tail")
	l := NewLog(path)
	if r, _, err := l.Load(); r != nil || err != nil {
		t.Fatalf("cold load: %v, %v", r, err)
	}

	counts := []int64{1, 1, 1, 1}
	full := commitCounts(t, l, l.Base(), counts, head, tail)
	mustImage(t, path, logImage(head, tail, counts))
	if full.Steps != 4 || full.ImageBytes != 16+int64(len(logImage(head, tail, counts))) {
		t.Fatalf("first commit %+v", full)
	}

	next := []int64{1, 2, 1, 2}
	part := commitCounts(t, l, l.Base(), next, head, tail)
	mustImage(t, path, logImage(head, tail, next))
	if part.Steps != 2 || part.SegmentBytes >= full.SegmentBytes || part.Bytes >= full.Bytes {
		t.Fatalf("partial commit %+v after full %+v", part, full)
	}
	if got := segments(t, dir); len(got) != 2 {
		t.Fatalf("segments %v, want the full one and the partial one", got)
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if same := commitCounts(t, l, l.Base(), next, head, tail); same.Bytes != 0 || same.Steps != 0 {
		t.Fatalf("unchanged commit wrote %+v", same)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatal("unchanged commit rewrote the manifest")
	}

	tail2 := []byte("tail, longer")
	if tailOnly := commitCounts(t, l, l.Base(), next, head, tail2); tailOnly.SegmentBytes != 0 || tailOnly.Bytes == 0 {
		t.Fatalf("tail-only commit %+v", tailOnly)
	}
	mustImage(t, path, logImage(head, tail2, next))

	all := []int64{3, 3, 3, 3}
	commitCounts(t, l, l.Base(), all, head, tail2)
	mustImage(t, path, logImage(head, tail2, all))
	if got := segments(t, dir); len(got) != 1 || got[0] != "melissa-server-0003.seg-3" {
		t.Fatalf("segments %v after a full rewrite, want only melissa-server-0003.seg-3", got)
	}

	// A step whose count moved, given no section, is refused; the commit
	// leaves the last one in place.
	cm := l.Begin(4)
	if err := cm.Step(4, nil); err == nil {
		t.Fatal("reused a section recording another count")
	}
	if _, err := cm.Commit(head, tail2); err == nil {
		t.Fatal("a poisoned commit committed")
	}
	mustImage(t, path, logImage(head, tail2, all))
}

// TestLogCompactionBoundsDisk: rewriting overlapping pairs of steps piles
// up segments whose other sections are dead; once the live segments pass twice
// the image, Base asks for a full commit, which leaves a single segment. The
// live segments never exceed three images.
func TestLogCompactionBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	path := Filename(dir, 0)
	head, tail := []byte("h"), []byte("t")
	l := NewLog(path)
	counts := []int64{1, 1, 1, 1, 1, 1}
	image := int64(len(logImage(head, tail, counts)))
	fulls := 0
	for i := 0; i < 40; i++ {
		base := l.Base()
		if base == nil {
			fulls++
		}
		// Two neighbouring steps per commit: each segment is left holding
		// one live and one dead section.
		counts[i%6]++
		counts[(i+1)%6]++
		commitCounts(t, l, base, counts, head, tail)
		mustImage(t, path, logImage(head, tail, counts))
		var disk int64
		for _, name := range segments(t, dir) {
			info, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			disk += info.Size()
		}
		if disk > 3*image+3*segHeaderLen {
			t.Fatalf("commit %d: %d segment bytes for a %d-byte image", i, disk, image)
		}
	}
	if fulls < 2 {
		t.Fatalf("%d full commits in 40: compaction never ran", fulls)
	}
}

// TestLogLoadKeepsForeignSegments: a loaded manifest is the base of the
// next commit, which never takes the name of a segment already on disk —
// an orphan a crash left, or another process's — and leaves those files
// alone: removing them is SweepTemps' job.
func TestLogLoadKeepsForeignSegments(t *testing.T) {
	dir := t.TempDir()
	path := Filename(dir, 0)
	head, tail := []byte("h"), []byte("t")
	counts := []int64{1, 1, 1}
	commitCounts(t, NewLog(path), nil, counts, head, tail)
	raw, err := os.ReadFile(segmentPath(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	orphan := segmentPath(path, 2)
	if err := os.WriteFile(orphan, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l := NewLog(path)
	r, version, err := l.Load()
	if err != nil || r == nil || version != Version {
		t.Fatalf("load: %v (v%d)", err, version)
	}
	if !slices.Equal(l.Base(), counts) {
		t.Fatalf("base %v, want %v", l.Base(), counts)
	}
	counts[1]++
	if res := commitCounts(t, l, l.Base(), counts, head, tail); res.Steps != 1 {
		t.Fatalf("commit after a load wrote %d steps, want 1", res.Steps)
	}
	if got, _ := os.ReadFile(orphan); !bytes.Equal(got, raw) {
		t.Fatal("the commit overwrote a segment already on disk")
	}
	if _, err := os.Stat(segmentPath(path, 3)); err != nil {
		t.Fatal("the commit did not take the next free segment name")
	}
	mustImage(t, path, logImage(head, tail, counts))
}

// TestLogFirstCommitReplacesUnloadedCheckpoint: a log that never loaded
// the checkpoint at its path (a server started without restore) replaces
// it with its first commit, segments included; other checkpoints' segments
// stay.
func TestLogFirstCommitReplacesUnloadedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	counts := []int64{1, 1}
	for rank := 0; rank < 2; rank++ {
		l := NewLog(Filename(dir, rank))
		commitCounts(t, l, nil, counts, []byte("old"), nil)
		commitCounts(t, l, l.Base(), []int64{1, 2}, []byte("old"), nil)
	}
	if got := len(segments(t, dir)); got != 4 {
		t.Fatalf("%d segments before the fresh log, want 4", got)
	}
	path := Filename(dir, 0)
	commitCounts(t, NewLog(path), nil, counts, []byte("new"), nil)
	mustImage(t, path, logImage([]byte("new"), nil, counts))
	want := []string{"melissa-server-0000.seg-3", "melissa-server-0001.seg-1", "melissa-server-0001.seg-2"}
	if got := segments(t, dir); !slices.Equal(got, want) {
		t.Fatalf("segments %v, want %v", got, want)
	}
}

// TestLogLegacyFileCommitsFull: a single-file checkpoint loads with no base,
// so the first commit after it writes every step.
func TestLogLegacyFileCommitsFull(t *testing.T) {
	path := Filename(t.TempDir(), 0)
	if err := Write(path, func(w *enc.Writer) { w.String("v4 image") }); err != nil {
		t.Fatal(err)
	}
	l := NewLog(path)
	r, version, err := l.Load()
	if err != nil || version != Version || r.String() != "v4 image" {
		t.Fatalf("legacy load: v%d, %v", version, err)
	}
	if l.Base() != nil || l.Counts() != nil {
		t.Fatal("a single file gave a dirty base")
	}
	counts := []int64{2, 2}
	if res := commitCounts(t, l, l.Base(), counts, []byte("h"), nil); res.Steps != 2 {
		t.Fatalf("first commit after a single file wrote %d of 2 steps", res.Steps)
	}
	mustImage(t, path, logImage([]byte("h"), nil, counts))
}

// writeManifest writes m at path as a ManifestVersion file.
func writeManifest(t *testing.T, path string, m *manifest) {
	t.Helper()
	sw, err := newStreamWriter(path, ManifestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Section(m.encode); err != nil {
		t.Fatal(err)
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestManifestOffsetBeyond4GiB: sections sit at 64-bit offsets, so no
// segment size limit remains. A sparse segment places a section past 2^32
// without writing 4 GiB; the manifest naming it round-trips and reads.
func TestManifestOffsetBeyond4GiB(t *testing.T) {
	dir := t.TempDir()
	path := Filename(dir, 0)
	f, err := os.Create(segmentPath(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	var h [segHeaderLen]byte
	binary.LittleEndian.PutUint32(h[:], magic)
	binary.LittleEndian.PutUint32(h[4:], ManifestVersion)
	binary.LittleEndian.PutUint64(h[8:], 1)
	sec := []byte("a section past the 32-bit wall")
	const off = 1<<32 + 12345
	if _, err := f.Write(h[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(sec, off); err != nil {
		t.Skipf("filesystem refuses a sparse 4 GiB file: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m := &manifest{head: []byte("h"), tail: []byte("t"),
		steps: []Entry{{Seg: 1, Off: off, Len: int64(len(sec)), CRC: crc32.ChecksumIEEE(sec), N: 7}}}
	w := enc.NewWriter(256)
	m.encode(w)
	back, err := decodeManifest(w.Bytes())
	if err != nil || len(back.steps) != 1 || back.steps[0] != m.steps[0] {
		t.Fatalf("manifest round trip: %+v, %v", back, err)
	}
	writeManifest(t, path, m)
	mustImage(t, path, []byte("h"+string(sec)+"t"))
}

// TestReadRejectsHostileManifest: a manifest naming a missing segment, a
// section outside its segment, overlapping or duplicate sections, a short
// segment, a segment under another sequence number or a section whose CRC
// does not match fails with a clean error — before any allocation the
// segments on disk could not fill. (A missing step is the server's check:
// entries are positional, and its restore matches them against the
// decoded steps.)
func TestReadRejectsHostileManifest(t *testing.T) {
	dir := t.TempDir()
	path := Filename(dir, 0)
	counts := []int64{1, 1, 1}
	commitCounts(t, NewLog(path), nil, counts, []byte("h"), []byte("t"))
	_, _, good, _, err := readImage(path)
	if err != nil {
		t.Fatal(err)
	}
	seg := segmentPath(path, 1)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := os.Stat(seg)
	size := info.Size()

	mutate := func(f func(e []Entry)) *manifest {
		m := &manifest{head: good.head, tail: good.tail, steps: slices.Clone(good.steps)}
		f(m.steps)
		return m
	}
	cases := map[string]*manifest{
		"missing segment":    mutate(func(e []Entry) { e[1].Seg = 99 }),
		"offset in header":   mutate(func(e []Entry) { e[0].Off = 3 }),
		"offset past end":    mutate(func(e []Entry) { e[2].Off = size + 1 }),
		"length past end":    mutate(func(e []Entry) { e[2].Len = size }),
		"negative length":    mutate(func(e []Entry) { e[1].Len = -1 }),
		"huge length":        mutate(func(e []Entry) { e[0].Len = 1 << 62 }),
		"duplicate step":     mutate(func(e []Entry) { e[2] = e[1] }),
		"overlapping step":   mutate(func(e []Entry) { e[1].Off-- }),
		"section CRC":        mutate(func(e []Entry) { e[0].CRC ^= 1 }),
		"header sequence id": mutate(func(e []Entry) {}),
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			if name == "header sequence id" {
				// The segment file carries another sequence number.
				bad := slices.Clone(raw)
				binary.LittleEndian.PutUint64(bad[8:], 2)
				if err := os.WriteFile(seg, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				defer os.WriteFile(seg, raw, 0o644)
			}
			writeManifest(t, path, m)
			if _, _, err := Read(path); err == nil || !strings.HasPrefix(err.Error(), "checkpoint: ") {
				t.Fatalf("accepted, or an unclean error: %v", err)
			}
		})
	}

	t.Run("short segment", func(t *testing.T) {
		writeManifest(t, path, good)
		if err := os.WriteFile(seg, raw[:len(raw)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(seg, raw, 0o644)
		if _, _, err := Read(path); err == nil || !strings.HasPrefix(err.Error(), "checkpoint: ") {
			t.Fatalf("accepted a truncated segment, or an unclean error: %v", err)
		}
	})
}

// TestSweepTempsSegments: the sweep removes a segment whose checkpoint is
// missing, is a single file, or is a manifest that does not name it; it
// keeps the segments a manifest names and every segment of a manifest it
// cannot read.
func TestSweepTempsSegments(t *testing.T) {
	dir := t.TempDir()
	counts := []int64{1, 1}
	for rank := 0; rank < 2; rank++ {
		commitCounts(t, NewLog(Filename(dir, rank)), nil, counts, []byte("h"), []byte("t"))
	}
	seg := func(rank int, seq uint64) string { return filepath.Base(segmentPath(Filename(dir, rank), seq)) }
	raw, err := os.ReadFile(filepath.Join(dir, seg(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1's manifest is garbled: its segments must stay.
	if err := os.WriteFile(Filename(dir, 1), []byte("garbled"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Rank 2 holds a single file, rank 3 no checkpoint at all.
	if err := Write(Filename(dir, 2), func(w *enc.Writer) { w.U8(1) }); err != nil {
		t.Fatal(err)
	}
	planted := []string{seg(0, 5), seg(1, 6), seg(2, 1), seg(3, 1)}
	for _, name := range planted {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := SweepTemps(dir)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(removed)
	want := []string{seg(0, 5), seg(2, 1), seg(3, 1)}
	slices.Sort(want)
	if !slices.Equal(removed, want) {
		t.Fatalf("swept %v, want %v", removed, want)
	}
	if got := segments(t, dir); !slices.Equal(got, []string{seg(0, 1), seg(1, 1), seg(1, 6)}) {
		t.Fatalf("left %v", got)
	}
	if _, _, err := Read(Filename(dir, 0)); err != nil {
		t.Fatalf("sweep broke a live checkpoint: %v", err)
	}
}

// TestLogFaultKeepsLastCommit: a fault inside a segment write, or after the
// segment's fsync but before the manifest's rename, leaves the last
// committed image readable and its segments in place, and removes the
// failed commit's segment; the next commit writes what the failed one
// would have.
func TestLogFaultKeepsLastCommit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault int // the hook call that fails: 1 = first segment section
	}{{"in segment", 1}, {"before manifest rename", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := Filename(dir, 0)
			head, tail := []byte("h"), []byte("t")
			l := NewLog(path)
			counts := []int64{1, 1, 1}
			commitCounts(t, l, nil, counts, head, tail)
			committed := logImage(head, tail, counts)

			calls := 0
			injected := errors.New("injected")
			SetWriteFault(func(int64) error {
				if calls++; calls == tc.fault {
					return injected
				}
				return nil
			})
			defer SetWriteFault(nil)
			next := []int64{2, 2, 2}
			cm := l.Begin(3)
			var err error
			for step, n := range next {
				if err = cm.Step(n, func(w *enc.Writer) { w.Raw(section(step, n)) }); err != nil {
					break
				}
			}
			if err == nil {
				_, err = cm.Commit(head, tail)
			} else {
				cm.Abort()
			}
			if !errors.Is(err, injected) {
				t.Fatalf("commit error %v, want the injected fault", err)
			}
			SetWriteFault(nil)
			mustImage(t, path, committed)
			if got := segments(t, dir); !slices.Equal(got, []string{"melissa-server-0000.seg-1"}) {
				t.Fatalf("segments after the fault: %v", got)
			}
			if !slices.Equal(l.Base(), counts) {
				t.Fatalf("base moved to %v by a failed commit", l.Base())
			}
			commitCounts(t, l, l.Base(), next, head, tail)
			mustImage(t, path, logImage(head, tail, next))
		})
	}
}
