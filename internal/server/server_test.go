package server

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/sampling"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// testSim is a deterministic synthetic "solver": the field value at cell c,
// step t for parameter row x is a fixed nonlinear function. Deterministic
// re-execution is what makes group restarts exact.
func testSim(cells, timesteps int) client.SimFunc {
	return func(row []float64, emit func(step int, field []float64) bool) {
		field := make([]float64, cells)
		for t := 0; t < timesteps; t++ {
			for c := range field {
				v := math.Sin(row[0]+float64(c)) + row[1]*float64(t+1)*0.1
				if len(row) > 2 {
					v += row[2] * row[0] * 0.05 * float64(c%3)
				}
				field[c] = v
			}
			if !emit(t, field) {
				return
			}
		}
	}
}

func testDesign(p, n int) *sampling.Design {
	dists := make([]sampling.Distribution, p)
	for i := range dists {
		dists[i] = sampling.Uniform{Low: -1, High: 1}
	}
	return sampling.NewDesign(dists, n, 1234)
}

// waitFolds polls until the server has folded want (group, step) updates
// per process, or the deadline passes.
func waitFolds(t *testing.T, s *Server, want int64, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if s.TotalFolds() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server folded %d of %d expected updates", s.TotalFolds(), want)
}

func startServer(t *testing.T, net transport.Network, procs, cells, timesteps, p int, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Procs:          procs,
		Cells:          cells,
		Timesteps:      timesteps,
		P:              p,
		Network:        net,
		ReportInterval: 50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	return s
}

func runGroups(t *testing.T, net transport.Network, s *Server, design *sampling.Design, cells, timesteps, simRanks int, groups []int) {
	t.Helper()
	sim := testSim(cells, timesteps)
	errs := make(chan error, len(groups))
	for _, g := range groups {
		go func(g int) {
			errs <- client.RunGroup(net, s.MainAddr(), client.RunConfig{
				ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: simRanks},
				Rows:        design.GroupRows(g),
				Sim:         sim,
			})
		}(g)
	}
	for range groups {
		if err := <-errs; err != nil {
			t.Fatalf("group failed: %v", err)
		}
	}
}

// runGroupsSequential feeds groups one at a time so the server folds them in
// a deterministic order — required when a test compares results bit-exactly
// across runs (iterative statistics are order-invariant only to round-off).
func runGroupsSequential(t *testing.T, net transport.Network, s *Server, design *sampling.Design, cells, timesteps, simRanks int, groups []int) {
	t.Helper()
	sim := testSim(cells, timesteps)
	folded := s.TotalFolds()
	for _, g := range groups {
		if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
			ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: simRanks},
			Rows:        design.GroupRows(g),
			Sim:         sim,
		}); err != nil {
			t.Fatalf("group %d failed: %v", g, err)
		}
		folded += int64(timesteps * len(s.procs))
		waitFolds(t, s, folded, 10*time.Second)
	}
}

func TestServerConfigValidation(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	bad := []Config{
		{Procs: 0, Cells: 1, Timesteps: 1, P: 1, Network: net},
		{Procs: 1, Cells: 0, Timesteps: 1, P: 1, Network: net},
		{Procs: 1, Cells: 1, Timesteps: 1, P: 1},
		{Procs: 1, Cells: 1, Timesteps: 1, P: 1, Network: net, CheckpointInterval: time.Second},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestHandshakeDeliversLayout(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	const cells, timesteps, p = 100, 5, 3
	s := startServer(t, net, 4, cells, timesteps, p, nil)
	defer s.Stop(false)

	conn, err := client.ConnectWith(net, s.MainAddr(), client.ConnectOpts{GroupID: 7, SimRanks: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Layout.Cells != cells || conn.Layout.Timesteps != timesteps || conn.Layout.P != p {
		t.Fatalf("layout %+v", conn.Layout)
	}
	if len(conn.Layout.ServerAddr) != 4 || len(conn.Layout.Partitions) != 4 {
		t.Fatalf("layout has %d addrs / %d partitions", len(conn.Layout.ServerAddr), len(conn.Layout.Partitions))
	}
	covered := 0
	for _, part := range conn.Layout.Partitions {
		covered += part.Len()
	}
	if covered != cells {
		t.Fatalf("partitions cover %d of %d cells", covered, cells)
	}
}

// End-to-end exactness: the distributed path (groups → two-stage transfer →
// parallel server assembly) must produce statistics identical to folding the
// same fields directly into one reference accumulator.
func TestEndToEndMatchesDirectAccumulation(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	const cells, timesteps, p, nGroups = 60, 4, 3, 16
	const procs, simRanks = 3, 4 // deliberately not aligned: 3 server, 4 sim ranks
	design := testDesign(p, nGroups)

	s := startServer(t, net, procs, cells, timesteps, p, nil)
	groups := make([]int, nGroups)
	for i := range groups {
		groups[i] = i
	}
	runGroups(t, net, s, design, cells, timesteps, simRanks, groups)
	waitFolds(t, s, int64(nGroups*timesteps*procs), 10*time.Second)
	s.Stop(false)
	res := s.Result()

	// Reference: direct accumulation over the whole mesh.
	ref := core.NewAccumulator(cells, timesteps, p, core.Options{})
	sim := testSim(cells, timesteps)
	for g := 0; g < nGroups; g++ {
		rows := design.GroupRows(g)
		outs := make([][][]float64, len(rows)) // [sim][step][cell]
		for si, row := range rows {
			outs[si] = make([][]float64, timesteps)
			sim.Run(row, func(step int, field []float64) bool {
				outs[si][step] = append([]float64(nil), field...)
				return true
			})
		}
		for step := 0; step < timesteps; step++ {
			yC := make([][]float64, p)
			for k := 0; k < p; k++ {
				yC[k] = outs[k+2][step]
			}
			ref.UpdateGroup(step, outs[0][step], outs[1][step], yC)
		}
	}

	for step := 0; step < timesteps; step++ {
		if res.GroupsFolded(step) != int64(nGroups) {
			t.Fatalf("step %d folded %d groups, want %d", step, res.GroupsFolded(step), nGroups)
		}
		for k := 0; k < p; k++ {
			got := res.FirstField(step, k)
			gotT := res.TotalField(step, k)
			for c := 0; c < cells; c++ {
				if d := math.Abs(got[c] - ref.FirstAt(step, k, c)); d > 1e-9 {
					t.Fatalf("S%d(step %d, cell %d) differs from direct by %v", k, step, c, d)
				}
				if d := math.Abs(gotT[c] - ref.TotalAt(step, k, c)); d > 1e-9 {
					t.Fatalf("ST%d(step %d, cell %d) differs from direct by %v", k, step, c, d)
				}
			}
		}
	}
	if res.Messages() == 0 || res.MemoryBytes() == 0 {
		t.Fatal("result accounting empty")
	}
}

// A replayed group (restart after crash) must not change the statistics:
// the server-level discard-on-replay test.
func TestServerDiscardOnReplay(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	const cells, timesteps, p, nGroups = 30, 4, 2, 6
	design := testDesign(p, nGroups)
	sim := testSim(cells, timesteps)

	// Bit-exact comparison requires a deterministic fold order, and RunGroup
	// returning only means the messages are queued; wait for the exact fold
	// count after every attempt before starting the next group.
	runStudy := func(crashing map[int]int) *Result {
		s := startServer(t, net, 2, cells, timesteps, p, nil)
		var expected int64
		for g := 0; g < nGroups; g++ {
			crashAt, crashes := crashing[g]
			if crashes {
				// First attempt dies after sending steps 0..crashAt-1 ...
				err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
					ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 2}, Rows: design.GroupRows(g), Sim: sim,
					BeforeStep: func(step int) error {
						if step >= crashAt {
							return fmt.Errorf("injected crash")
						}
						return nil
					},
				})
				if err == nil {
					t.Fatal("injected crash did not fail the group")
				}
				expected += int64(crashAt * 2)
				waitFolds(t, s, expected, 10*time.Second)
			}
			// ... then the (re)run goes to completion (replayed steps are
			// discarded, the rest folded).
			if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
				ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 2}, Rows: design.GroupRows(g), Sim: sim,
			}); err != nil {
				t.Fatal(err)
			}
			if crashes {
				expected += int64((timesteps - crashAt) * 2)
			} else {
				expected += int64(timesteps * 2)
			}
			waitFolds(t, s, expected, 10*time.Second)
		}
		s.Stop(false)
		return s.Result()
	}

	clean := runStudy(nil)
	replayed := runStudy(map[int]int{1: 2, 4: 0, 5: 3})

	for step := 0; step < timesteps; step++ {
		if clean.GroupsFolded(step) != replayed.GroupsFolded(step) {
			t.Fatalf("step %d: folded %d vs %d", step, clean.GroupsFolded(step), replayed.GroupsFolded(step))
		}
		for k := 0; k < p; k++ {
			a, b := clean.FirstField(step, k), replayed.FirstField(step, k)
			for c := range a {
				if a[c] != b[c] {
					t.Fatalf("replay changed S%d at step %d cell %d: %v vs %v", k, step, c, a[c], b[c])
				}
			}
		}
	}
	// The tracker must show every group finished exactly once.
	if got := len(finishedIDs(trackers(replayed)...)); got != nGroups {
		t.Fatalf("%d finished groups, want %d", got, nGroups)
	}
}

func TestServerGroupTimeoutReported(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	const cells, timesteps, p = 20, 50, 2
	design := testDesign(p, 4)

	launcher, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer launcher.Close()

	s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) {
		c.GroupTimeout = 150 * time.Millisecond
		c.LauncherAddr = launcher.Addr()
		c.ReportInterval = 30 * time.Millisecond
	})
	defer s.Stop(false)

	// A straggler group: sends a couple of steps then hangs (StepDelay huge).
	go client.RunGroup(net, s.MainAddr(), client.RunConfig{
		ConnectOpts: client.ConnectOpts{GroupID: 2, SimRanks: 1}, Rows: design.GroupRows(2), Sim: testSim(cells, timesteps),
		BeforeStep: func(step int) error {
			if step >= 2 {
				time.Sleep(10 * time.Second) // hang, do not fail
			}
			return nil
		},
	})

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		msg, err := launcher.Recv(time.Second)
		if err != nil {
			continue
		}
		decoded, err := wire.Decode(msg.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if rep, ok := decoded.(*wire.Report); ok {
			for _, g := range rep.TimedOut {
				if g == 2 {
					return // detected, as Sec. 4.2.2 requires
				}
			}
		}
	}
	t.Fatal("straggler group never reported as timed out")
}

// TestServerHeartbeats: every process reports at ReportInterval while it has
// nothing to fold — the report is the server's heartbeat.
func TestServerHeartbeats(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	launcher, _ := net.Listen("")
	defer launcher.Close()
	s := startServer(t, net, 2, 10, 2, 1, func(c *Config) {
		c.LauncherAddr = launcher.Addr()
		c.ReportInterval = 20 * time.Millisecond
	})
	defer s.Stop(false)

	reports := map[int]int{}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && (reports[0] < 3 || reports[1] < 3) {
		msg, err := launcher.Recv(time.Second)
		if err != nil {
			continue
		}
		if decoded, err := wire.Decode(msg.Payload); err == nil {
			if rep, ok := decoded.(*wire.Report); ok {
				reports[rep.ProcRank]++
			}
		}
	}
	if reports[0] < 3 || reports[1] < 3 {
		t.Fatalf("reports from an idle server per rank: %v", reports)
	}
}

// Checkpoint → kill → restore → finish must equal an uninterrupted run
// (Sec. 4.2.3 with the checkpoint invariants of DESIGN.md #6).
func TestServerCheckpointRestart(t *testing.T) {
	const cells, timesteps, p, nGroups = 40, 3, 2, 10
	design := testDesign(p, nGroups)
	dir := t.TempDir()

	// Phase 1: fold half the groups, checkpoint via Stop(true), discard.
	net1 := transport.NewMemNetwork(transport.Options{})
	s1 := startServer(t, net1, 2, cells, timesteps, p, func(c *Config) {
		c.CheckpointInterval = time.Hour // periodic off; final checkpoint on Stop
		c.CheckpointDir = dir
	})
	firstHalf := []int{0, 1, 2, 3, 4}
	runGroupsSequential(t, net1, s1, design, cells, timesteps, 2, firstHalf)
	s1.Stop(true)

	// Phase 2: new server restores and folds the remaining groups.
	net2 := transport.NewMemNetwork(transport.Options{})
	s2, err := New(Config{
		Procs: 2, Cells: cells, Timesteps: timesteps, P: p,
		Network: net2, CheckpointInterval: time.Hour, CheckpointDir: dir,
		ReportInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(); err != nil {
		t.Fatal(err)
	}
	s2.Start()
	secondHalf := []int{5, 6, 7, 8, 9}
	runGroupsSequential(t, net2, s2, design, cells, timesteps, 2, secondHalf)
	s2.Stop(false)
	restored := s2.Result()

	// Reference: one uninterrupted server over all groups.
	net3 := transport.NewMemNetwork(transport.Options{})
	s3 := startServer(t, net3, 2, cells, timesteps, p, nil)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	runGroupsSequential(t, net3, s3, design, cells, timesteps, 2, all)
	s3.Stop(false)
	reference := s3.Result()

	for step := 0; step < timesteps; step++ {
		for k := 0; k < p; k++ {
			a, b := reference.FirstField(step, k), restored.FirstField(step, k)
			for c := range a {
				if a[c] != b[c] {
					t.Fatalf("restart changed S%d at step %d cell %d: %v vs %v", k, step, c, a[c], b[c])
				}
			}
		}
	}
	// Checkpoint read stats were recorded.
	reads := 0
	for _, pr := range s2.Procs() {
		reads += pr.Checkpoints().Reads
	}
	if reads != 2 {
		t.Fatalf("expected 2 checkpoint reads, got %d", reads)
	}
}

// TestRestoreRejectsOtherStudyShape: a checkpoint written for one study
// shape does not restore into a server configured for another. A longer
// study would otherwise start from the shorter checkpoint and fail in a fold
// worker on the first step past its end; the error names both shapes.
func TestRestoreRejectsOtherStudyShape(t *testing.T) {
	const cells, timesteps, p = 20, 3, 2
	dir := t.TempDir()
	design := testDesign(p, 2)
	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) { c.CheckpointDir = dir })
	runGroupsSequential(t, net, s, design, cells, timesteps, 1, []int{0, 1})
	s.Stop(true)

	for _, shape := range []struct{ timesteps, p int }{{timesteps + 2, p}, {timesteps, p + 1}} {
		s2 := New2(t, transport.NewMemNetwork(transport.Options{}), 1, cells, shape.timesteps, shape.p, func(c *Config) { c.CheckpointDir = dir })
		err := s2.Restore()
		if err == nil {
			t.Fatalf("a %d-step, p=%d checkpoint restored into a %d-step, p=%d study", timesteps, p, shape.timesteps, shape.p)
		}
		want := fmt.Sprintf("%d timesteps and %d parameters, the study %d and %d", timesteps, p, shape.timesteps, shape.p)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("restore error %q does not name both shapes (%q)", err, want)
		}
	}
}

func TestServerPeriodicCheckpointing(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	dir := t.TempDir()
	s := startServer(t, net, 1, 10, 2, 1, func(c *Config) {
		c.CheckpointInterval = 40 * time.Millisecond
		c.CheckpointDir = dir
	})
	time.Sleep(250 * time.Millisecond)
	s.Stop(false)
	ck := s.Procs()[0].Checkpoints()
	if ck.Writes < 2 {
		t.Fatalf("expected multiple periodic checkpoints, got %d", ck.Writes)
	}
	if ck.LastBytes == 0 {
		t.Fatal("checkpoint size not recorded")
	}
}

func TestServerResultConvergence(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	const cells, timesteps, p, nGroups = 10, 2, 2, 24
	design := testDesign(p, nGroups)
	s := startServer(t, net, 2, cells, timesteps, p, nil)
	groups := make([]int, nGroups)
	for i := range groups {
		groups[i] = i
	}
	runGroups(t, net, s, design, cells, timesteps, 1, groups)
	waitFolds(t, s, int64(nGroups*timesteps*2), 10*time.Second)
	s.Stop(false)
	res := s.Result()
	w := res.MaxCIWidth()
	if math.IsInf(w, 1) || w <= 0 {
		t.Fatalf("MaxCIWidth = %v", w)
	}
	inter := res.InteractionField(0)
	if len(inter) != cells {
		t.Fatal("interaction field wrong length")
	}
}

// finishedIDs returns the sorted ids of the groups every given tracker
// holds finished.
func finishedIDs(trs ...*core.GroupTracker) []int {
	count := map[int]int{}
	for _, tr := range trs {
		tr.Each(func(id int, st core.GroupState) {
			if st == core.GroupFinished {
				count[id]++
			}
		})
	}
	var ids []int
	for id, n := range count {
		if n == len(trs) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// trackers returns each process's group tracker.
func trackers(res *Result) []*core.GroupTracker {
	var trs []*core.GroupTracker
	for _, p := range res.procs {
		trs = append(trs, p.route.tracker)
	}
	return trs
}
