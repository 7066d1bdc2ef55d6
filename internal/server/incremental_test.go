package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"melissa/internal/checkpoint"
	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/enc"
	"melissa/internal/sampling"
	"melissa/internal/transport"
)

var errCut = errors.New("group cut")

// groupRun is one group of a test study: its first steps timesteps are
// sent, all of them or a cut-off prefix.
type groupRun struct{ group, steps int }

// runGroupPrefix runs one group through a resilient client and waits until
// the server folded what it sent. A whole group ends with the client's
// durable drain — an early checkpoint request — when the server
// checkpoints; a cut one fails after its first steps timesteps.
func runGroupPrefix(t *testing.T, net transport.Network, s *Server, design *sampling.Design, cells, timesteps int, g groupRun) {
	t.Helper()
	folded := s.TotalFolds()
	err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
		ConnectOpts: client.ConnectOpts{GroupID: g.group, SimRanks: 2, Retry: client.RetryPolicy{MaxReconnects: 2}},
		Rows:        design.GroupRows(g.group),
		Sim:         testSim(cells, timesteps),
		BeforeStep: func(step int) error {
			if step == g.steps {
				return errCut
			}
			return nil
		},
	})
	if g.steps < timesteps && !errors.Is(err, errCut) || g.steps == timesteps && err != nil {
		t.Fatalf("group %d: %v", g.group, err)
	}
	waitFolds(t, s, folded+int64(g.steps*len(s.procs)), 10*time.Second)
}

// eventuallyImages polls each process's checkpoint image until it equals
// want; a commit in flight may still be landing.
func eventuallyImages(t *testing.T, dir string, want [][]byte, label string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rank := range want {
		for {
			img, version, err := checkpoint.ReadImage(checkpoint.Filename(dir, rank))
			if err == nil && version == checkpoint.Version && len(want[rank]) >= 16 && bytes.Equal(img, want[rank][16:]) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s rank %d: checkpoint image (%d bytes, %v) never matched the quiesced one (%d bytes)",
					label, rank, len(img), err, len(want[rank])-16)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestIncrementalCheckpointsMatchQuiesced: checkpoints that write only the
// steps folded since the last commit assemble, after every commit, exactly
// the image a quiesced one-shot encode gives at that fold state — over every
// Options combination (quantiles included) and FoldWorkers {1, 4}. Whole
// groups end with an early checkpoint; cut groups dirty only their first
// steps, so the commits that cover them keep the other steps' sections.
// The reference for each fold state is a fresh server folding the same
// groups and stopping.
func TestIncrementalCheckpointsMatchQuiesced(t *testing.T) {
	const procs, cells, timesteps, p = 2, 30, 3, 2
	design := testDesign(p, 4)
	plan := []groupRun{{0, timesteps}, {1, 1}, {2, timesteps}, {3, 2}}
	for ci, opts := range optionCombos() {
		// want[i] is the quiesced image after plan[:i+1].
		want := make([][][]byte, len(plan))
		for i := range plan {
			net := transport.NewMemNetwork(transport.Options{})
			ref := startServer(t, net, procs, cells, timesteps, p, func(c *Config) { c.Stats = opts })
			for _, g := range plan[:i+1] {
				runGroupPrefix(t, net, ref, design, cells, timesteps, g)
			}
			ref.Stop(false)
			for _, pr := range ref.Procs() {
				want[i] = append(want[i], quiescedCheckpoint(t, pr))
			}
		}
		for _, workers := range []int{1, 4} {
			dir := t.TempDir()
			net := transport.NewMemNetwork(transport.Options{})
			s := startServer(t, net, procs, cells, timesteps, p, func(c *Config) {
				c.Stats = opts
				c.FoldWorkers = workers
				c.CheckpointDir = dir
				c.CheckpointInterval = 10 * time.Millisecond
			})
			for i, g := range plan {
				before := s.Procs()[0].Checkpoints()
				runGroupPrefix(t, net, s, design, cells, timesteps, g)
				label := fmt.Sprintf("combo %d fold%d after group %d", ci, workers, g.group)
				eventuallyImages(t, dir, want[i], label)
				if g.steps == 1 {
					// One step of three changed: its commits wrote less
					// than an image. The stats trail the rename.
					ck := s.Procs()[0].Checkpoints()
					for end := time.Now().Add(5 * time.Second); ck.BytesWritten == before.BytesWritten && time.Now().Before(end); {
						time.Sleep(time.Millisecond)
						ck = s.Procs()[0].Checkpoints()
					}
					if d := ck.BytesWritten - before.BytesWritten; d <= 0 || d >= ck.LastBytes {
						t.Fatalf("%s: commits wrote %d bytes for a %d-byte image", label, d, ck.LastBytes)
					}
				}
			}
			s.Stop(true)
			got := readCheckpointFiles(t, dir, procs)
			for rank := range got {
				if !bytes.Equal(got[rank], want[len(plan)-1][rank]) {
					t.Fatalf("combo %d fold%d rank %d: final checkpoint differs from quiesced", ci, workers, rank)
				}
			}
		}
	}
}

// referencedSegmentsExist fails t unless the checkpoint at path reads — so
// every segment its manifest names is on disk and intact.
func referencedSegmentsExist(t *testing.T, path string) {
	t.Helper()
	if _, _, err := checkpoint.Read(path); err != nil {
		t.Fatalf("a durable manifest lost a segment: %v", err)
	}
}

// segmentFiles lists the segment files in dir.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".seg-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestCheckpointFaultsKeepLastCommit drives the write-fault hook through a
// fault inside a segment write, a fault after the segment's fsync but before
// the manifest's rename, and a failed commit followed by a good one. After
// each, the manifest's segments are all on disk and a restore reproduces the
// last committed state bitwise: a restored process re-encodes to exactly the
// committed image.
func TestCheckpointFaultsKeepLastCommit(t *testing.T) {
	const cells, timesteps, p = 24, 3, 2
	design := testDesign(p, 4)
	newServer := func(t *testing.T, dir string, interval time.Duration) *Server {
		s, err := New(Config{
			Procs: 1, FoldWorkers: 2, Cells: cells, Timesteps: timesteps, P: p,
			Network:       transport.NewMemNetwork(transport.Options{}),
			CheckpointDir: dir, CheckpointInterval: interval, ReportInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// committed folds groups 0-1 into dir and returns the committed image.
	committed := func(t *testing.T, dir string) []byte {
		s := newServer(t, dir, time.Hour)
		s.Start()
		runGroupsSequential(t, s.cfg.Network, s, design, cells, timesteps, 2, []int{0, 1})
		s.Stop(true)
		return readCheckpointFiles(t, dir, 1)[0]
	}
	// restoresTo checks the manifest's segments and that a restore
	// re-encodes to want.
	restoresTo := func(t *testing.T, dir string, want []byte) {
		t.Helper()
		path := checkpoint.Filename(dir, 0)
		referencedSegmentsExist(t, path)
		if got := readImageFile(t, path); !bytes.Equal(got, want) {
			t.Fatal("the checkpoint no longer holds the last committed image")
		}
		s := newServer(t, dir, time.Hour)
		if got := quiescedCheckpoint(t, s.Procs()[0]); !bytes.Equal(got, want) {
			t.Fatal("restore differs from the last committed state")
		}
	}
	injected := errors.New("injected writer crash")
	// faultWhen fails the hook calls fail picks; calls counts those.
	var calls atomic.Int64
	faultWhen := func(fail func(call, written int64) bool) {
		calls.Store(0)
		var n atomic.Int64
		checkpoint.SetWriteFault(func(written int64) error {
			if fail(n.Add(1), written) {
				calls.Add(1)
				return injected
			}
			return nil
		})
	}
	defer checkpoint.SetWriteFault(nil)

	for _, tc := range []struct {
		name  string
		fault int64 // the failing hook call
	}{
		{"in segment write", 2},
		// Group 2 dirties every step: calls 1..timesteps write the
		// segment, the next writes the manifest, after the segment's fsync.
		{"before manifest rename", timesteps + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want := committed(t, dir)
			segs := segmentFiles(t, dir)
			faultWhen(func(call, _ int64) bool { return call == tc.fault })
			s := newServer(t, dir, time.Hour)
			s.Start()
			runGroupsSequential(t, s.cfg.Network, s, design, cells, timesteps, 2, []int{2})
			s.Stop(true) // the one commit fails
			checkpoint.SetWriteFault(nil)
			if calls.Load() != 1 {
				t.Fatalf("the write never reached hook call %d", tc.fault)
			}
			if ck := s.Procs()[0].Checkpoints(); ck.Writes != 0 {
				t.Fatalf("a failed commit counted: %+v", ck)
			}
			if got := segmentFiles(t, dir); strings.Join(got, ",") != strings.Join(segs, ",") {
				t.Fatalf("segments %v after the failed commit, want %v", got, segs)
			}
			// A process dying between the segment's fsync and the rename
			// leaves its segment behind; the restore sweeps it.
			raw, err := os.ReadFile(filepath.Join(dir, segs[0]))
			if err != nil {
				t.Fatal(err)
			}
			orphan := filepath.Join(dir, "melissa-server-0000.seg-99")
			if err := os.WriteFile(orphan, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			restoresTo(t, dir, want)
			if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("restore left the orphaned segment")
			}
		})
	}

	t.Run("failed then good", func(t *testing.T) {
		dir := t.TempDir()
		committed(t, dir)
		// Every commit fails at its manifest, after its segment's fsync:
		// the manifest is the only write under 1 KiB here, each step's
		// section alone being larger.
		faultWhen(func(_, written int64) bool { return written < 1<<10 })
		s := newServer(t, dir, 10*time.Millisecond)
		s.Start()
		runGroupsSequential(t, s.cfg.Network, s, design, cells, timesteps, 2, []int{2})
		// At most two jobs were in flight when the folds completed; the
		// third failing attempt snapshotted group 2.
		calls.Store(0)
		deadline := time.Now().Add(5 * time.Second)
		for calls.Load() < 3 {
			if time.Now().After(deadline) {
				t.Fatal("no checkpoint attempt after the folds")
			}
			time.Sleep(time.Millisecond)
		}
		checkpoint.SetWriteFault(nil)
		pr := s.Procs()[0]
		for pr.Checkpoints().Writes == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no good commit after the failures")
			}
			time.Sleep(time.Millisecond)
		}
		s.Stop(false)
		want := quiescedCheckpoint(t, pr)
		restoresTo(t, dir, want)
	})
}

// TestRestoreRejectsManifestStepMismatch: a manifest whose entries do not
// match the steps its image decodes to — one step short, or a step filed
// under another group count — is a clean restore error, never a misread.
func TestRestoreRejectsManifestStepMismatch(t *testing.T) {
	const cells, timesteps, p = 8, 3, 2
	acc := core.NewSharded(cells, timesteps, p, core.Options{}, 1)
	field := func(v float64) []float64 {
		f := make([]float64, cells)
		for i := range f {
			f[i] = v + float64(i)
		}
		return f
	}
	for step := 0; step < timesteps; step++ {
		acc.UpdateGroup(step, field(1), field(2), [][]float64{field(3), field(4)})
	}
	snap := acc.NewSnapshot()
	acc.SnapshotShard(0, snap)
	head := enc.NewWriter(256)
	head.Int(0)
	head.Int(cells)
	head.I64(3)
	snap.EncodeHeader(head, core.LayoutCurrent)
	tail := enc.NewWriter(256)
	core.NewGroupTracker(timesteps - 1).Encode(tail)

	for name, entry := range map[string]func(step int) (int64, bool){
		"step missing":  func(step int) (int64, bool) { return snap.Count(step), step < timesteps-1 },
		"count differs": func(step int) (int64, bool) { return snap.Count(step) + int64(step/2), true },
		"intact":        func(step int) (int64, bool) { return snap.Count(step), true },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cm := checkpoint.NewLog(checkpoint.Filename(dir, 0)).Begin(timesteps)
			for step := 0; step < timesteps; step++ {
				if n, ok := entry(step); ok {
					if err := cm.Step(n, func(w *enc.Writer) { snap.EncodeStep(w, core.LayoutCurrent, step) }); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := cm.Commit(head.Bytes(), tail.Bytes()); err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{
				Procs: 1, Cells: cells, Timesteps: timesteps, P: p,
				Network:       transport.NewMemNetwork(transport.Options{}),
				CheckpointDir: dir, CheckpointInterval: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			err = s.Restore()
			if name == "intact" {
				if err != nil {
					t.Fatalf("an intact manifest failed to restore: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("restored a manifest that does not match its image")
			}
		})
	}
}
