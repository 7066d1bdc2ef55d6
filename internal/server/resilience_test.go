package server

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// resumeQuery asks one server process for its fold frontier of a group, the
// way a reconnecting client does.
func resumeQuery(t *testing.T, net transport.Network, procAddr string, group int) int {
	t.Helper()
	inbox, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer inbox.Close()
	s, err := net.Dial(procAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Send(wire.Encode(&wire.Resume{GroupID: group, ReplyAddr: inbox.Addr()})); err != nil {
		t.Fatal(err)
	}
	msg, err := inbox.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("no resume ack: %v", err)
	}
	decoded, err := wire.Decode(msg.Payload)
	transport.Recycle(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := decoded.(*wire.ResumeAck)
	if !ok || ack.GroupID != group {
		t.Fatalf("unexpected resume reply %T %+v", decoded, decoded)
	}
	return ack.LastStep
}

// TestResumeProtocol: after a group folds completely, every server process
// answers a Resume query with its full fold frontier; unknown groups ack -1.
func TestResumeProtocol(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	const cells, timesteps, p = 24, 6, 2
	design := testDesign(p, 2)
	s := startServer(t, net, 2, cells, timesteps, p, nil)
	defer s.Stop(false)

	runGroups(t, net, s, design, cells, timesteps, 1, []int{0})
	waitFolds(t, s, int64(timesteps*2), 5*time.Second)

	for rank, addr := range s.Addrs() {
		if got := resumeQuery(t, net, addr, 0); got != timesteps-1 {
			t.Fatalf("proc %d acked frontier %d, want %d", rank, got, timesteps-1)
		}
		if got := resumeQuery(t, net, addr, 1); got != -1 {
			t.Fatalf("proc %d acked %d for an unseen group, want -1", rank, got)
		}
	}
}

// TestReconnectHealsCutBitwise: a chaos plan breaks the group's data
// connection mid-stream with part of the sent tail lost; the retry policy
// reconnects, the resume handshake reports the fold frontier, and the
// retention window resends exactly the lost steps. The statistics must be
// bitwise identical to a fault-free run, with no group-level restart.
func TestReconnectHealsCutBitwise(t *testing.T) {
	const cells, timesteps, p = 20, 10, 2
	design := testDesign(p, 2)
	groups := []int{0, 1}

	run := func(net transport.Network, rc func(*client.RunConfig)) *Result {
		inner := net
		s := startServer(t, inner, 1, cells, timesteps, p, nil)
		sim := testSim(cells, timesteps)
		for _, g := range groups {
			cfg := client.RunConfig{
				ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 1}, Rows: design.GroupRows(g), Sim: sim,
			}
			if rc != nil {
				rc(&cfg)
			}
			if err := client.RunGroup(inner, s.MainAddr(), cfg); err != nil {
				t.Fatalf("group %d failed: %v", g, err)
			}
		}
		waitFolds(t, s, int64(timesteps*len(groups)), 10*time.Second)
		s.Stop(false)
		return s.Result()
	}

	clean := run(transport.NewMemNetwork(transport.Options{}), nil)

	// Fabricate the chaos run: we need the server's data address before the
	// plan exists, so pre-listen is impossible — instead match any address on
	// its second dial (dial 0 is the Hello connection, dial 1 the data
	// connection of group 0) and break it: frames 1..2 deliver, 3..4 are
	// silently lost, the 5th send surfaces the cut.
	chaosNet := transport.NewChaosNetwork(transport.NewMemNetwork(transport.Options{}), transport.ChaosPlan{
		Seed: 17,
		Rules: []transport.ChaosRule{
			{Dial: 1, CutAfterFrames: 4, DropTailFrames: 2},
		},
	})
	var reconnects atomic.Int64
	faulty := run(chaosNet, func(cfg *client.RunConfig) {
		cfg.Retry = client.RetryPolicy{
			MaxReconnects: 3,
			BaseDelay:     time.Millisecond,
			MaxDelay:      5 * time.Millisecond,
			Seed:          1,
		}
		cfg.OnReconnect = func(rank, attempt int) { reconnects.Add(1) }
	})

	if got := reconnects.Load(); got == 0 {
		t.Fatal("chaos cut never triggered a reconnect")
	}
	if st := chaosNet.Stats(); st.Cuts != 1 || st.Dropped != 2 {
		t.Fatalf("chaos stats: %+v", st)
	}
	for _, tr := range []int{0, timesteps / 2, timesteps - 1} {
		for k := 0; k < p; k++ {
			a, b := clean.FirstField(tr, k), faulty.FirstField(tr, k)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("S%d differs at (t=%d, cell=%d): %v vs %v", k, tr, i, a[i], b[i])
				}
			}
			at, bt := clean.TotalField(tr, k), faulty.TotalField(tr, k)
			for i := range at {
				if at[i] != bt[i] {
					t.Fatalf("ST%d differs at (t=%d, cell=%d): %v vs %v", k, tr, i, at[i], bt[i])
				}
			}
		}
	}
	if fin := faulty.Tracker().Finished(); len(fin) != len(groups) {
		t.Fatalf("finished groups %v, want %d", fin, len(groups))
	}
}

// TestBatchedResendFromReusedBufferBitwise pins the client's ownership
// boundary: the simulation writes every step into one reused buffer
// (testSim does), and each member's emit copies its field straight into the
// open batch frame before the buffer is overwritten; the retention ring
// keeps its own copy of every shipped frame, never a view of the reused
// buffer. A cut that loses a whole batch is healed by resending the
// retained frames; the statistics must equal a clean run bit for bit.
func TestBatchedResendFromReusedBufferBitwise(t *testing.T) {
	const cells, timesteps, p, groups = 20, 12, 2, 2
	design := testDesign(p, groups)
	run := func(net transport.Network, retry client.RetryPolicy) *Result {
		s := startServer(t, net, 1, cells, timesteps, p, nil)
		for g := 0; g < groups; g++ {
			if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
				ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 1, BatchSteps: 4, Retry: retry},
				Rows:        design.GroupRows(g), Sim: testSim(cells, timesteps),
			}); err != nil {
				t.Fatalf("group %d failed: %v", g, err)
			}
		}
		waitFolds(t, s, int64(timesteps*groups), 10*time.Second)
		s.Stop(false)
		return s.Result()
	}
	clean := run(transport.NewMemNetwork(transport.Options{}), client.RetryPolicy{})

	// Dial 1 is group 0's data connection: its first batch (steps 0..3) is
	// silently lost and the second batch's send surfaces the cut.
	chaosNet := transport.NewChaosNetwork(transport.NewMemNetwork(transport.Options{}), transport.ChaosPlan{
		Seed:  3,
		Rules: []transport.ChaosRule{{Dial: 1, CutAfterFrames: 1, DropTailFrames: 1}},
	})
	faulty := run(chaosNet, client.RetryPolicy{MaxReconnects: 3, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Seed: 1})
	if st := chaosNet.Stats(); st.Cuts != 1 || st.Dropped != 1 {
		t.Fatalf("chaos stats: %+v", st)
	}
	compareResultsBitwise(t, "batched resend", clean, faulty, timesteps, p)
}

// TestSendTimestepBorrowsFields pins SendTimestep's borrow contract: the
// caller overwrites its field arrays right after every call, while batching
// holds three steps per frame and a cut loses the first batch, which the
// retention ring resends. The statistics must equal a clean run bit for
// bit, so no client structure may keep a view of the caller's fields.
func TestSendTimestepBorrowsFields(t *testing.T) {
	const cells, timesteps, p, groups = 20, 12, 2, 2
	design := testDesign(p, groups)
	run := func(net transport.Network, retry client.RetryPolicy, scribble bool) *Result {
		s := startServer(t, net, 1, cells, timesteps, p, nil)
		for g := 0; g < groups; g++ {
			// Every member's fields of every step, from the test solver.
			rows := design.GroupRows(g)
			steps := make([][][]float64, timesteps)
			for _, row := range rows {
				testSim(cells, timesteps)(row, func(step int, field []float64) bool {
					steps[step] = append(steps[step], slices.Clone(field))
					return true
				})
			}
			conn, err := client.ConnectWith(net, s.MainAddr(), client.ConnectOpts{
				GroupID: g, SimRanks: 1, Timeout: 5 * time.Second, BatchSteps: 3, Retry: retry})
			if err != nil {
				t.Fatal(err)
			}
			fields := make([][]float64, p+2)
			for i := range fields {
				fields[i] = make([]float64, cells)
			}
			for step := 0; step < timesteps; step++ {
				for i := range fields {
					copy(fields[i], steps[step][i])
				}
				if err := conn.SendTimestep(step, fields); err != nil {
					t.Fatalf("group %d step %d: %v", g, step, err)
				}
				if scribble { // SendTimestep returned: the fields are ours again
					for i := range fields {
						clear(fields[i])
					}
				}
			}
			if err := conn.Flush(); err != nil {
				t.Fatal(err)
			}
			conn.Close()
		}
		waitFolds(t, s, int64(timesteps*groups), 10*time.Second)
		s.Stop(false)
		return s.Result()
	}
	clean := run(transport.NewMemNetwork(transport.Options{}), client.RetryPolicy{}, false)

	// Dial 1 is group 0's data connection: its first batch (steps 0..2) is
	// silently lost and the second batch's send surfaces the cut.
	chaosNet := transport.NewChaosNetwork(transport.NewMemNetwork(transport.Options{}), transport.ChaosPlan{
		Seed:  3,
		Rules: []transport.ChaosRule{{Dial: 1, CutAfterFrames: 1, DropTailFrames: 1}},
	})
	faulty := run(chaosNet, client.RetryPolicy{MaxReconnects: 3, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Seed: 1}, true)
	if st := chaosNet.Stats(); st.Cuts != 1 || st.Dropped != 1 {
		t.Fatalf("chaos stats: %+v", st)
	}
	compareResultsBitwise(t, "borrowed fields", clean, faulty, timesteps, p)
}

// TestRetryBudgetZeroKeepsLegacyFailure: with no retry budget a cut
// connection fails the attempt immediately — the pre-resilience contract the
// launcher's restart protocol builds on.
func TestRetryBudgetZeroKeepsLegacyFailure(t *testing.T) {
	const cells, timesteps, p = 12, 8, 2
	design := testDesign(p, 1)
	chaosNet := transport.NewChaosNetwork(transport.NewMemNetwork(transport.Options{}), transport.ChaosPlan{
		Rules: []transport.ChaosRule{{Dial: 1, CutAfterFrames: 2}},
	})
	s := startServer(t, chaosNet, 1, cells, timesteps, p, nil)
	defer s.Stop(false)

	err := client.RunGroup(chaosNet, s.MainAddr(), client.RunConfig{
		ConnectOpts: client.ConnectOpts{GroupID: 0, SimRanks: 1, OnReconnect: func(rank, attempt int) {
			t.Error("zero budget attempted a reconnect")
		}}, Rows: design.GroupRows(0), Sim: testSim(cells, timesteps),
	})
	if err == nil {
		t.Fatal("cut connection did not fail the zero-budget attempt")
	}
}

// TestCorruptFrameHealsViaResume: a corrupted frame is rejected by the
// decoder and leaves a hole; the frontier stalls (ahead steps fold but are
// not trusted), the stalled group trips the server timeout, and a restarted
// attempt with Resume skips the folded prefix, refills the hole, and the
// replay-discard tracker absorbs the overlap — statistics bitwise identical
// to a clean run.
func TestCorruptFrameHealsViaResume(t *testing.T) {
	const cells, timesteps, p = 16, 8, 2
	design := testDesign(p, 1)

	runClean := func() *Result {
		net := transport.NewMemNetwork(transport.Options{})
		s := startServer(t, net, 1, cells, timesteps, p, nil)
		runGroups(t, net, s, design, cells, timesteps, 1, []int{0})
		waitFolds(t, s, timesteps, 5*time.Second)
		s.Stop(false)
		return s.Result()
	}
	clean := runClean()

	// Frame 3 of the data connection (step 2) arrives damaged: the strict
	// decoder rejects it, steps 3..7 fold ahead of the hole.
	chaosNet := transport.NewChaosNetwork(transport.NewMemNetwork(transport.Options{}), transport.ChaosPlan{
		Seed:  5,
		Rules: []transport.ChaosRule{{Dial: 1, CorruptFrame: 3}},
	})
	lrecv, err := chaosNet.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer lrecv.Close()
	s := startServer(t, chaosNet, 1, cells, timesteps, p, func(c *Config) {
		c.GroupTimeout = 100 * time.Millisecond
		c.LauncherAddr = lrecv.Addr()
		c.ReportInterval = 20 * time.Millisecond
	})
	defer s.Stop(false)

	sim := testSim(cells, timesteps)
	if err := client.RunGroup(chaosNet, s.MainAddr(), client.RunConfig{
		ConnectOpts: client.ConnectOpts{GroupID: 0, SimRanks: 1}, Rows: design.GroupRows(0), Sim: sim,
	}); err != nil {
		t.Fatalf("first attempt failed outright: %v", err)
	}

	// The hole must stall the frontier and trip the timeout report (the
	// corrupted frame refreshed nothing; later frames are all ahead of the
	// frontier and do not count as progress).
	deadline := time.Now().Add(5 * time.Second)
	timedOut := false
	for !timedOut && time.Now().Before(deadline) {
		msg, err := lrecv.Recv(time.Second)
		if err != nil {
			continue
		}
		if decoded, err := wire.Decode(msg.Payload); err == nil {
			if rep, ok := decoded.(*wire.Report); ok {
				for _, g := range rep.TimedOut {
					if g == 0 {
						timedOut = true
					}
				}
			}
		}
		transport.Recycle(msg.Payload)
	}
	if !timedOut {
		t.Fatal("stalled frontier never reported as timed out")
	}

	// The launcher's replay: a resumed attempt. The frontier is 1, so steps
	// 0..1 are skipped, 2..7 are resent; 3..7 are discarded as already
	// folded, 2 fills the hole and the frontier drains to the end.
	if err := client.RunGroup(chaosNet, s.MainAddr(), client.RunConfig{
		ConnectOpts: client.ConnectOpts{GroupID: 0, SimRanks: 1, Retry: client.RetryPolicy{MaxReconnects: 2, BaseDelay: time.Millisecond}, Resume: true}, Rows: design.GroupRows(0), Sim: sim,
	}); err != nil {
		t.Fatalf("resumed attempt failed: %v", err)
	}
	waitFolds(t, s, timesteps, 10*time.Second)
	s.Stop(false)
	res := s.Result()

	if fin := res.Tracker().Finished(); len(fin) != 1 || fin[0] != 0 {
		t.Fatalf("group not finished after resume: %v", fin)
	}
	for tr := 0; tr < timesteps; tr++ {
		if got := res.GroupsFolded(tr); got != 1 {
			t.Fatalf("step %d folded %d times", tr, got)
		}
		for k := 0; k < p; k++ {
			a, b := clean.FirstField(tr, k), res.FirstField(tr, k)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("S%d differs at (t=%d, cell=%d) after corruption heal", k, tr, i)
				}
			}
		}
	}
}
