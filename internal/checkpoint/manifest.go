package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"melissa/internal/enc"
)

// ManifestVersion is the header version of a manifest: the small file at a
// checkpoint's path that names where each timestep's section of the image
// lives. Its payload is the image's head (everything before the first step:
// partition, message count, accumulator header), one Entry per timestep in
// step order, then the image's tail (the group tracker). Read assembles the
// image a manifest describes — the exact payload of a Version file — and
// reports Version, so one decoder serves both.
const ManifestVersion = 5

const (
	// segHeaderLen is a segment's header: magic, ManifestVersion and the
	// segment's sequence number, which must match its name.
	segHeaderLen = 16
	// entryLen is one encoded Entry.
	entryLen = 8 + 8 + 8 + 4 + 8
	// segInfix joins a checkpoint's base name and a segment sequence number.
	segInfix = ".seg-"
)

// Entry locates one timestep's section of the image.
type Entry struct {
	Seg uint64 // segment sequence number
	Off int64  // byte offset of the section in its segment
	Len int64  // section length in bytes
	CRC uint32 // CRC-32 (IEEE) of the section
	// N is the timestep's group count when the section was written. Every
	// fold increments it, so an unchanged count means unchanged bytes: the
	// writer's dirty bit.
	N int64
}

// manifest is a decoded manifest payload.
type manifest struct {
	head, tail []byte
	steps      []Entry
}

// segmentPath returns the path of segment seq of the checkpoint at path:
// melissa-server-NNNN.ckpt → melissa-server-NNNN.seg-<seq>.
func segmentPath(path string, seq uint64) string {
	return strings.TrimSuffix(path, ".ckpt") + segInfix + strconv.FormatUint(seq, 10)
}

// parseSegmentName splits a segment file name into the name of the
// checkpoint it belongs to and its sequence number; ok is false for every
// other name.
func parseSegmentName(name string) (ckpt string, seq uint64, ok bool) {
	i := strings.LastIndex(name, segInfix)
	if i <= 0 {
		return "", 0, false
	}
	digits := name[i+len(segInfix):]
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || strconv.FormatUint(seq, 10) != digits {
		return "", 0, false
	}
	return name[:i] + ".ckpt", seq, true
}

func (m *manifest) encode(w *enc.Writer) {
	w.U64(uint64(len(m.head)))
	w.Raw(m.head)
	w.U64(uint64(len(m.steps)))
	for _, e := range m.steps {
		w.U64(e.Seg)
		w.I64(e.Off)
		w.I64(e.Len)
		w.U32(e.CRC)
		w.I64(e.N)
	}
	w.U64(uint64(len(m.tail)))
	w.Raw(m.tail)
}

// decodeManifest parses a manifest payload. The head and tail alias b. No
// count read from b sizes an allocation before it is checked against the
// bytes b has left.
func decodeManifest(b []byte) (*manifest, error) {
	le := binary.LittleEndian
	bad := func(what string) (*manifest, error) {
		return nil, fmt.Errorf("corrupt manifest: %s", what)
	}
	blob := func() ([]byte, bool) {
		if len(b) < 8 {
			return nil, false
		}
		n := le.Uint64(b)
		if n > uint64(len(b)-8) {
			return nil, false
		}
		out := b[8 : 8+n]
		b = b[8+n:]
		return out, true
	}
	var m manifest
	var ok bool
	if m.head, ok = blob(); !ok {
		return bad("head")
	}
	if len(b) < 8 {
		return bad("step count")
	}
	n := le.Uint64(b)
	b = b[8:]
	if n > uint64(len(b)/entryLen) {
		return bad(fmt.Sprintf("%d steps in %d bytes", n, len(b)))
	}
	m.steps = make([]Entry, n)
	for i := range m.steps {
		e := b[i*entryLen:]
		m.steps[i] = Entry{
			Seg: le.Uint64(e),
			Off: int64(le.Uint64(e[8:])),
			Len: int64(le.Uint64(e[16:])),
			CRC: le.Uint32(e[24:]),
			N:   int64(le.Uint64(e[28:])),
		}
	}
	b = b[n*entryLen:]
	if m.tail, ok = blob(); !ok {
		return bad("tail")
	}
	if len(b) != 0 {
		return bad(fmt.Sprintf("%d trailing bytes", len(b)))
	}
	return &m, nil
}

// imageLen returns the length of the image m describes.
func (m *manifest) imageLen() int64 {
	n := int64(len(m.head) + len(m.tail))
	for _, e := range m.steps {
		n += e.Len
	}
	return n
}

// counts returns the per-step group counts m records.
func (m *manifest) counts() []int64 {
	out := make([]int64, len(m.steps))
	for t, e := range m.steps {
		out[t] = e.N
	}
	return out
}

// assemble reads the image manifest m (at path) describes. Every entry is
// checked against its segment before anything is allocated: the segment
// exists and carries its own sequence number, the section lies inside it,
// and it starts after the previous section of that segment ends — a commit
// writes its steps in order — so no two sections overlap and the image
// can never be larger than the segments it is read from. Each section's
// CRC is checked as it is read. Returns the image and the size of every
// referenced segment.
func assemble(path string, m *manifest) ([]byte, map[uint64]int64, error) {
	segs := map[uint64]*os.File{}
	defer func() {
		for _, f := range segs {
			f.Close()
		}
	}()
	sizes := map[uint64]int64{}
	ends := map[uint64]int64{}
	for t, e := range m.steps {
		if _, ok := segs[e.Seg]; !ok {
			f, size, err := openSegment(path, e.Seg)
			if err != nil {
				return nil, nil, err
			}
			segs[e.Seg], sizes[e.Seg], ends[e.Seg] = f, size, segHeaderLen
		}
		size := sizes[e.Seg]
		if e.Off < ends[e.Seg] || e.Len < 0 || e.Off > size || e.Len > size-e.Off {
			return nil, nil, fmt.Errorf("step %d: section [%d, +%d) of segment %d (%d bytes) overlaps another or lies outside",
				t, e.Off, e.Len, e.Seg, size)
		}
		ends[e.Seg] = e.Off + e.Len
	}
	img := make([]byte, 0, m.imageLen())
	img = append(img, m.head...)
	for t, e := range m.steps {
		sec := img[len(img) : len(img)+int(e.Len)]
		if _, err := segs[e.Seg].ReadAt(sec, e.Off); err != nil {
			return nil, nil, fmt.Errorf("step %d: %w", t, err)
		}
		if crc32.ChecksumIEEE(sec) != e.CRC {
			return nil, nil, fmt.Errorf("step %d: section CRC mismatch in segment %d", t, e.Seg)
		}
		img = img[:len(img)+len(sec)]
	}
	return append(img, m.tail...), sizes, nil
}

// openSegment opens segment seq of the checkpoint at path and checks its
// header. Returns the open file and its size.
func openSegment(path string, seq uint64) (*os.File, int64, error) {
	f, err := os.Open(segmentPath(path, seq))
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	var h [segHeaderLen]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("segment %d: short header: %w", seq, err)
	}
	le := binary.LittleEndian
	if le.Uint32(h[:]) != magic || le.Uint32(h[4:]) != ManifestVersion || le.Uint64(h[8:]) != seq {
		f.Close()
		return nil, 0, fmt.Errorf("segment %d: bad header", seq)
	}
	return f, info.Size(), nil
}

// Log is the writer side of one process's checkpoint: the manifest at its
// path and the segments that manifest references. It remembers the last
// committed manifest, so a commit writes only the timesteps whose group
// count changed into one new segment and points the manifest at the
// committed sections of the rest. One goroutine owns a Log.
type Log struct {
	path string
	// last is the last committed manifest (nil: none, or a single-file
	// checkpoint was restored); sizes holds the size of every segment it
	// references.
	last  *manifest
	sizes map[uint64]int64
	// seq is the last segment sequence number tried.
	seq uint64
}

// NewLog returns the log of the checkpoint at path. It reads nothing until
// Load or the first commit.
func NewLog(path string) *Log { return &Log{path: path} }

// Load reads the checkpoint at the log's path, as Read does, and adopts it as
// the base of the next commit. A missing file returns a nil reader: a cold
// start. (Segments no manifest names are SweepTemps' to remove.)
func (l *Log) Load() (*enc.Reader, int, error) {
	if _, err := os.Stat(l.path); errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	img, version, m, sizes, err := readImage(l.path)
	if err != nil {
		return nil, 0, err
	}
	l.last, l.sizes = m, sizes
	return enc.NewReader(img), version, nil
}

// Counts returns the per-timestep group counts of the last committed
// manifest, nil when there is none.
func (l *Log) Counts() []int64 {
	if l.last == nil {
		return nil
	}
	return l.last.counts()
}

// Base returns the dirty base of the next commit: the counts of the last
// committed manifest, or nil when the next commit must write every step —
// nothing committed yet, a single-file checkpoint restored, or compaction
// due. Compaction is due once the referenced segments total more than twice
// the image, so the live segments stay under about three images: a commit
// adds at most one image's worth to a set of at most two.
func (l *Log) Base() []int64 {
	if l.last == nil || l.compactionDue() {
		return nil
	}
	return l.last.counts()
}

// compactionDue reports whether the referenced segments total more than
// twice the last image.
func (l *Log) compactionDue() bool {
	var total int64
	for _, size := range l.sizes {
		total += size
	}
	return total > 2*l.last.imageLen()
}

// Committed describes one commit.
type Committed struct {
	// Steps is the number of timesteps written to the new segment;
	// SegmentBytes its size (0 when no step changed).
	Steps        int
	SegmentBytes int64
	// Bytes is the segment plus the manifest: what the commit wrote. It is 0
	// when nothing changed since the last commit, which then writes nothing.
	Bytes int64
	// ImageBytes is the size of the single file holding the same image:
	// header plus payload.
	ImageBytes int64
}

// Commit is one checkpoint being written through a Log: Step for every
// timestep in order, then Commit (or Abort).
type Commit struct {
	log *Log
	// full is set when the commit compacts: it writes every step it is given
	// a section for, reusing none.
	full bool
	seq  uint64 // the new segment's; 0 until the first Step creates it
	f    *os.File
	sec  *enc.Writer
	// off is the new segment's size so far; wrote counts its sections.
	off   int64
	wrote int
	steps []Entry
	err   error
}

// Begin starts a commit of an image of timesteps steps.
func (l *Log) Begin(timesteps int) *Commit {
	return &Commit{log: l, full: l.last != nil && l.compactionDue(), steps: make([]Entry, 0, timesteps)}
}

// Step adds the next timestep at group count n. The last committed
// manifest's section of that step is reused when it records the same count
// — unless the commit compacts and fill is given. Otherwise fill encodes the
// section into the commit's segment, created on the first such Step; a nil
// fill (the caller holds no copy of the step) then poisons the commit. On
// error the commit is poisoned; call Abort.
func (c *Commit) Step(n int64, fill func(w *enc.Writer)) error {
	if c.err != nil {
		return c.err
	}
	t, last := len(c.steps), c.log.last
	if last != nil && t < len(last.steps) && last.steps[t].N == n && (fill == nil || !c.full) {
		c.steps = append(c.steps, last.steps[t])
		return nil
	}
	if fill == nil {
		c.err = fmt.Errorf("checkpoint: step %d (count %d) has no committed section to reuse", t, n)
		return c.err
	}
	if c.f == nil {
		if c.err = c.create(); c.err != nil {
			return c.err
		}
	}
	c.sec.Reset()
	fill(c.sec)
	sec := c.sec.Bytes()
	c.steps = append(c.steps, Entry{Seg: c.seq, Off: c.off, Len: int64(len(sec)), CRC: crc32.ChecksumIEEE(sec), N: n})
	// One write per section, straight from the encode buffer: a section is
	// a whole step's records, so a write buffer would only copy it again.
	if _, err := c.f.Write(sec); err != nil {
		c.err = fmt.Errorf("checkpoint: %w", err)
		return c.err
	}
	c.off += int64(len(sec))
	c.wrote++
	if hook := writeFault.Load(); hook != nil {
		if err := (*hook)(c.off - segHeaderLen); err != nil {
			c.err = fmt.Errorf("checkpoint: %w", err)
		}
	}
	return c.err
}

// create opens the commit's segment under the next free sequence number —
// never one a file on disk already holds — and writes its header.
func (c *Commit) create() error {
	l := c.log
	if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var f *os.File
	err := os.ErrExist
	for errors.Is(err, os.ErrExist) {
		l.seq++
		f, err = os.OpenFile(segmentPath(l.path, l.seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	c.seq, c.f, c.sec = l.seq, f, enc.GetWriter(1<<16)
	var h [segHeaderLen]byte
	binary.LittleEndian.PutUint32(h[:], magic)
	binary.LittleEndian.PutUint32(h[4:], ManifestVersion)
	binary.LittleEndian.PutUint64(h[8:], c.seq)
	c.off = segHeaderLen
	if _, err := f.Write(h[:]); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Commit makes the image durable: it fsyncs the segment, then writes the
// manifest — head, the step entries, tail — through the temp, CRC, fsync,
// rename and directory-sync protocol. Only once that manifest is durable
// does it delete the segments it no longer references. A commit that wrote
// no step, with the head and tail of the last one, writes nothing. When
// the manifest fails at its rename or after, the segment stays — the new
// manifest may be in place — for a later sweep to judge.
func (c *Commit) Commit(head, tail []byte) (Committed, error) {
	if c.err != nil {
		c.Abort()
		return Committed{}, c.err
	}
	l := c.log
	m := &manifest{head: head, tail: tail, steps: c.steps}
	res := Committed{Steps: c.wrote, ImageBytes: 16 + m.imageLen()}
	if c.f == nil && l.last != nil && len(c.steps) == len(l.last.steps) &&
		bytes.Equal(head, l.last.head) && bytes.Equal(tail, l.last.tail) {
		return res, nil
	}
	m.head, m.tail = bytes.Clone(head), bytes.Clone(tail)
	if c.f != nil {
		err := c.f.Sync()
		if cerr := c.f.Close(); err == nil {
			err = cerr
		}
		c.f = nil
		if err != nil {
			err = fmt.Errorf("checkpoint: %w", err)
		} else {
			// The segment's directory entry must be durable before the
			// manifest that names it.
			err = syncDir(filepath.Dir(l.path))
		}
		if err != nil {
			c.discard()
			return Committed{}, err
		}
		res.SegmentBytes = c.off
	}
	sw, err := newStreamWriter(l.path, ManifestVersion)
	if err == nil {
		if err = sw.Section(m.encode); err != nil {
			sw.Abort()
		}
	}
	if err != nil {
		c.discard()
		return Committed{}, err
	}
	manifestBytes := 16 + sw.Written()
	if err := sw.Commit(); err != nil {
		c.release()
		return Committed{}, err
	}
	sizes := make(map[uint64]int64, len(l.sizes)+1)
	for _, e := range m.steps {
		if e.Seg == c.seq {
			sizes[e.Seg] = c.off
		} else {
			sizes[e.Seg] = l.sizes[e.Seg]
		}
	}
	if l.last == nil {
		// The first manifest of this log replaces whatever the path held —
		// a checkpoint never loaded, or a single file — and with it every
		// segment of this checkpoint it does not name.
		removeUnnamed(l.path, sizes)
	}
	for seq := range l.sizes {
		if _, live := sizes[seq]; !live {
			os.Remove(segmentPath(l.path, seq))
		}
	}
	l.last, l.sizes = m, sizes
	c.release()
	res.Bytes = res.SegmentBytes + manifestBytes
	return res, nil
}

// removeUnnamed removes the segments of the checkpoint at path that live
// does not hold.
func removeUnnamed(path string, live map[uint64]int64) {
	dir, base := filepath.Split(path)
	entries, _ := os.ReadDir(filepath.Clean(dir))
	for _, e := range entries {
		if ckpt, seq, ok := parseSegmentName(e.Name()); ok && ckpt == base {
			if _, keep := live[seq]; !keep {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
}

// Abort discards the commit and its segment; the last committed checkpoint
// is untouched. Safe after any error.
func (c *Commit) Abort() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
	c.discard()
}

// discard removes the commit's segment, which no manifest names.
func (c *Commit) discard() {
	if c.seq != 0 {
		os.Remove(segmentPath(c.log.path, c.seq))
	}
	c.release()
}

func (c *Commit) release() {
	c.seq = 0
	if c.sec != nil {
		enc.PutWriter(c.sec)
		c.sec = nil
	}
}

// readImage reads the checkpoint at path: a single file's payload as it is,
// a manifest's image assembled from its segments (reported as Version, with
// the manifest and its segments' sizes).
func readImage(path string) ([]byte, int, *manifest, map[uint64]int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	payload, version, err := unframe(path, raw)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	if version != ManifestVersion {
		return payload, version, nil, nil, nil
	}
	m, err := decodeManifest(payload)
	if err != nil {
		return nil, 0, nil, nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	img, sizes, err := assemble(path, m)
	if err != nil {
		return nil, 0, nil, nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return img, Version, m, sizes, nil
}
