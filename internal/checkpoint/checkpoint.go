// Package checkpoint implements the on-disk format of Melissa Server's
// periodic state saves (Sec. 4.2.1): each server process independently
// writes one file containing its statistics accumulator and its group
// bookkeeping. Files are written atomically (temp file + rename) and carry a
// magic header, a format version and a CRC so that a crash during
// checkpointing can never leave a silently corrupt restart point — the
// previous complete checkpoint always survives.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"

	"melissa/internal/enc"
)

const (
	magic = 0x4d4c5341 // "MLSA"

	// V1 is the original payload format: Sobol' co-moments plus the
	// optional min/max, exceedance and higher-moment trackers.
	V1 = 1
	// V2 appends the per-cell quantile-sketch state (core.LayoutV2).
	V2 = 2
	// Version is the current (newest) format, written by Write: V3 keeps
	// the V2 accumulator block and changes the group-tracker block to the
	// frontier+ahead layout (core.LayoutV3). Read accepts every version
	// from V1 up to Version and reports which one it found, so servers
	// restart cleanly from checkpoints written by older builds.
	Version = 3
)

// Filename returns the canonical checkpoint path for a server process rank,
// mirroring the paper's one-file-per-process layout.
func Filename(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("melissa-server-%04d.ckpt", rank))
}

// Write serializes a payload produced by fill into path, atomically, in the
// current format version. The server streams its checkpoints through
// StreamWriter; Write is the one-shot reference the tests compare that path
// against, and has no other callers.
func Write(path string, fill func(w *enc.Writer)) error {
	return WriteVersioned(path, Version, fill)
}

// WriteVersioned writes a checkpoint in an explicit format version — the
// compatibility surface for producing files older builds (or tests
// exercising the upgrade path) can read. The caller must fill the payload
// in the matching layout (e.g. core.EncodeVersion). It is a one-section
// StreamWriter, so the whole temp+CRC+fsync+rename+dir-sync protocol lives
// in exactly one place. Only tests and tools/goldengen (the golden-fixture
// generator) call it.
func WriteVersioned(path string, version int, fill func(w *enc.Writer)) error {
	sw, err := NewStreamWriter(path, version)
	if err != nil {
		return err
	}
	if err := sw.Section(fill); err != nil {
		sw.Abort()
		return err
	}
	return sw.Commit()
}

// syncDir fsyncs a directory so a just-renamed checkpoint entry is durable:
// fsyncing the temp file makes the *bytes* survive power loss, but the
// rename lives in the directory, and without a directory sync the completed
// checkpoint itself can vanish with a crash. Filesystems that refuse to
// fsync directories (some network mounts) are tolerated — they provide no
// stronger guarantee to enforce.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return fmt.Errorf("checkpoint: sync %s: %w", dir, err)
	}
	return nil
}

// isSyncUnsupported reports errors that mean "this filesystem cannot fsync a
// directory" rather than "the sync failed".
func isSyncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) ||
		errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.ENOTTY)
}

// writeFault, when non-nil, is consulted after every section write with the
// total payload bytes streamed so far. Returning an error aborts the write
// mid-file — the fault-injection seam the crash-consistency tests use to
// prove a writer dying between sections can never damage the previous
// complete checkpoint. Production code never sets it.
var writeFault atomic.Pointer[func(written int64) error]

// SetWriteFault installs (or, with nil, clears) the test-only write fault
// hook shared by all stream writers in the process.
func SetWriteFault(f func(written int64) error) {
	if f == nil {
		writeFault.Store(nil)
		return
	}
	writeFault.Store(&f)
}

// StreamWriter writes one checkpoint section by section, so a server can
// stream a multi-hundred-MB state to disk without ever materializing the
// whole payload in memory: each Section is encoded into a reused buffer,
// CRC'd incrementally and appended to the temp file. Commit patches the real
// header over the placeholder, fsyncs, renames atomically and fsyncs the
// directory — the resulting file is byte-identical to a single WriteVersioned
// call producing the same payload, and until Commit returns the previous
// checkpoint at the target path is untouched.
type StreamWriter struct {
	path    string
	tmpName string
	f       *os.File
	bw      *bufio.Writer
	version int
	crc     uint32
	written int64
	sec     *enc.Writer
	err     error
}

// NewStreamWriter opens a temp file next to path and reserves the header.
func NewStreamWriter(path string, version int) (*StreamWriter, error) {
	if version < V1 || version > Version {
		return nil, fmt.Errorf("checkpoint: cannot write unknown version %d (valid: %d..%d)", version, V1, Version)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	sw := &StreamWriter{
		path:    path,
		tmpName: tmp.Name(),
		f:       tmp,
		bw:      bufio.NewWriterSize(tmp, 1<<20),
		version: version,
		sec:     enc.GetWriter(1 << 16),
	}
	var placeholder [16]byte
	if _, err := sw.bw.Write(placeholder[:]); err != nil {
		sw.Abort()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return sw, nil
}

// Section encodes one payload fragment through fill and streams it out. The
// fill callbacks across all sections must produce, concatenated, exactly the
// payload a single fill passed to WriteVersioned would produce. On error the
// writer is poisoned; call Abort.
func (sw *StreamWriter) Section(fill func(w *enc.Writer)) error {
	if sw.err != nil {
		return sw.err
	}
	sw.sec.Reset()
	fill(sw.sec)
	payload := sw.sec.Bytes()
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, payload)
	if _, err := sw.bw.Write(payload); err != nil {
		sw.err = fmt.Errorf("checkpoint: %w", err)
		return sw.err
	}
	sw.written += int64(len(payload))
	if hook := writeFault.Load(); hook != nil {
		if err := (*hook)(sw.written); err != nil {
			sw.err = fmt.Errorf("checkpoint: %w", err)
			return sw.err
		}
	}
	return nil
}

// Written returns the payload bytes streamed so far (header excluded).
func (sw *StreamWriter) Written() int64 { return sw.written }

// Commit finalizes the checkpoint: flush, patch the real header, fsync the
// file, atomically rename over path and fsync the directory. The StreamWriter
// must not be used afterwards.
func (sw *StreamWriter) Commit() error {
	if sw.err != nil {
		return sw.err
	}
	defer sw.release()
	if sw.written > math.MaxUint32 {
		// The header stores the payload length (and CRC) in 32 bits; a
		// larger payload could be renamed over the last good checkpoint but
		// never read back. Refuse and keep the previous file instead.
		sw.fail()
		return fmt.Errorf("checkpoint: payload %d bytes exceeds the format's 4 GiB limit", sw.written)
	}
	if err := sw.bw.Flush(); err != nil {
		sw.fail()
		return fmt.Errorf("checkpoint: %w", err)
	}
	var header [16]byte
	binary.LittleEndian.PutUint32(header[0:], magic)
	binary.LittleEndian.PutUint32(header[4:], uint32(sw.version))
	binary.LittleEndian.PutUint32(header[8:], sw.crc)
	binary.LittleEndian.PutUint32(header[12:], uint32(sw.written))
	if _, err := sw.f.WriteAt(header[:], 0); err != nil {
		sw.fail()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := sw.f.Sync(); err != nil {
		sw.fail()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := sw.f.Close(); err != nil {
		os.Remove(sw.tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(sw.tmpName, sw.path); err != nil {
		os.Remove(sw.tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return syncDir(filepath.Dir(sw.path))
}

// Abort discards the partial write and removes the temp file. Safe after any
// error, and a no-op after Commit.
func (sw *StreamWriter) Abort() {
	if sw.f == nil {
		return
	}
	sw.fail()
	sw.release()
}

func (sw *StreamWriter) fail() {
	if sw.f != nil {
		sw.f.Close()
		os.Remove(sw.tmpName)
	}
}

func (sw *StreamWriter) release() {
	sw.f = nil
	if sw.sec != nil {
		enc.PutWriter(sw.sec)
		sw.sec = nil
	}
}

// SweepTemps removes stale .ckpt-* temp files left in dir by a writer that
// crashed mid-checkpoint. The atomic-rename protocol makes them pure garbage
// — a temp file is only ever renamed into place after a successful fsync, so
// anything still carrying the temp prefix was abandoned. Returns the removed
// file names. A missing directory sweeps nothing.
func SweepTemps(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".ckpt-") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		if err := os.Remove(full); err != nil {
			return removed, fmt.Errorf("checkpoint: %w", err)
		}
		removed = append(removed, e.Name())
	}
	return removed, nil
}

// Read loads and verifies a checkpoint, returning a reader over its payload
// and the format version found in the header (V1..Version). Callers pass
// the version to the matching layout decoder (e.g.
// core.DecodeAccumulatorVersion). Files written by a newer build are
// rejected with a clean error rather than misread.
func Read(path string) (*enc.Reader, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	if len(raw) < 16 {
		return nil, 0, fmt.Errorf("checkpoint: %s: file too short (%d bytes)", path, len(raw))
	}
	if got := binary.LittleEndian.Uint32(raw[0:]); got != magic {
		return nil, 0, fmt.Errorf("checkpoint: %s: bad magic %#x", path, got)
	}
	version := int(binary.LittleEndian.Uint32(raw[4:]))
	if version < V1 || version > Version {
		return nil, 0, fmt.Errorf("checkpoint: %s: unsupported version %d (this build reads %d..%d)",
			path, version, V1, Version)
	}
	wantCRC := binary.LittleEndian.Uint32(raw[8:])
	wantLen := int(binary.LittleEndian.Uint32(raw[12:]))
	payload := raw[16:]
	if len(payload) != wantLen {
		return nil, 0, fmt.Errorf("checkpoint: %s: payload %d bytes, header says %d", path, len(payload), wantLen)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, 0, fmt.Errorf("checkpoint: %s: CRC mismatch", path)
	}
	return enc.NewReader(payload), version, nil
}

// Exists reports whether a readable checkpoint is present at path.
func Exists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && !info.IsDir()
}
