package server

import (
	"math"
	"sync"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/transport"
)

// TestTCPEndToEndStudy runs a full study over real sockets — the deployment
// mode of the paper (ZeroMQ/TCP between independent jobs) — and checks that
// the results equal the in-memory transport bit for bit when groups are fed
// in the same order.
func TestTCPEndToEndStudy(t *testing.T) {
	const cells, timesteps, p, nGroups, procs = 48, 3, 2, 8, 2
	design := testDesign(p, nGroups)

	run := func(net transport.Network) *Result {
		s := startServerOn(t, net, procs, cells, timesteps, p)
		groups := make([]int, nGroups)
		for i := range groups {
			groups[i] = i
		}
		runGroupsSequential(t, net, s, design, cells, timesteps, 2, groups)
		s.Stop(false)
		return s.Result()
	}
	mem := run(transport.NewMemNetwork(transport.Options{}))
	tcp := run(transport.NewTCPNetwork(transport.Options{}))

	for step := 0; step < timesteps; step++ {
		if mem.GroupsFolded(step) != tcp.GroupsFolded(step) {
			t.Fatalf("step %d: %d vs %d groups", step, mem.GroupsFolded(step), tcp.GroupsFolded(step))
		}
		for k := 0; k < p; k++ {
			a, b := mem.FirstField(step, k), tcp.FirstField(step, k)
			for c := range a {
				if a[c] != b[c] {
					t.Fatalf("transport changed S%d at (%d,%d): %v vs %v", k, step, c, a[c], b[c])
				}
			}
		}
	}
}

// TestTCPConcurrentGroups stresses the socket path with concurrent groups
// and verifies the final statistics against a direct reference (loose
// tolerance: fold order is nondeterministic).
func TestTCPConcurrentGroups(t *testing.T) {
	const cells, timesteps, p, nGroups, procs = 32, 3, 2, 12, 3
	net := transport.NewTCPNetwork(transport.Options{})
	design := testDesign(p, nGroups)
	s := startServerOn(t, net, procs, cells, timesteps, p)

	sim := testSim(cells, timesteps)
	var wg sync.WaitGroup
	errs := make(chan error, nGroups)
	for g := 0; g < nGroups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- client.RunGroup(net, s.MainAddr(), client.RunConfig{
				ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 2}, Rows: design.GroupRows(g), Sim: sim,
			})
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFolds(t, s, int64(nGroups*timesteps*procs), 15*time.Second)
	s.Stop(false)
	res := s.Result()

	memNet := transport.NewMemNetwork(transport.Options{})
	ref := startServerOn(t, memNet, procs, cells, timesteps, p)
	groups := make([]int, nGroups)
	for i := range groups {
		groups[i] = i
	}
	runGroupsSequential(t, memNet, ref, design, cells, timesteps, 2, groups)
	ref.Stop(false)
	refRes := ref.Result()

	for k := 0; k < p; k++ {
		a, b := res.FirstField(0, k), refRes.FirstField(0, k)
		for c := range a {
			if d := math.Abs(a[c] - b[c]); d > 1e-9 {
				t.Fatalf("S%d cell %d differs by %v", k, c, d)
			}
		}
	}
}

func startServerOn(t *testing.T, net transport.Network, procs, cells, timesteps, p int) *Server {
	t.Helper()
	s, err := New(Config{
		Procs: procs, Cells: cells, Timesteps: timesteps, P: p,
		Network: net, ReportInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	return s
}
