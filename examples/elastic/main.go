// Elastic demonstrates Melissa's elasticity over real TCP sockets: a
// parallel server comes up first, then simulation groups arrive in waves —
// dynamically connecting, streaming their timesteps and disconnecting —
// while the server keeps folding whatever arrives, in any order. Late
// groups can even be decided on *after* the early results are in, which is
// the basis of the paper's adaptive-sampling outlook (Sec. 7).
//
// Run with:
//
//	go run ./examples/elastic
package main

import (
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"melissa/internal/client"
	"melissa/internal/sampling"
	"melissa/internal/server"
	"melissa/internal/transport"
)

const (
	cells     = 128
	timesteps = 8
	p         = 3
)

// runGroup runs group g the way a solver that owns its time loop would,
// through the paper's three-call API: ConnectWith (Initialise), SendTimestep
// (Process), Close (Finalize). SendTimestep borrows the fields, so the same
// p+2 buffers serve every step.
func runGroup(net transport.Network, addr string, g int, rows [][]float64) error {
	conn, err := client.ConnectWith(net, addr, client.ConnectOpts{GroupID: g, SimRanks: 2, Timeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer conn.Close()
	fields := make([][]float64, len(rows))
	for i := range fields {
		fields[i] = make([]float64, cells)
	}
	for t := 0; t < timesteps; t++ {
		for i, row := range rows {
			for c := range fields[i] {
				x := float64(c) / cells
				fields[i][c] = row[0]*math.Sin(2*math.Pi*x) + row[1]*x + row[2]*row[2]*float64(t)*0.1
			}
		}
		if err := conn.SendTimestep(t, fields); err != nil {
			return err
		}
	}
	return conn.Flush()
}

func main() {
	net := transport.NewTCPNetwork(transport.Options{})

	srv, err := server.New(server.Config{
		Procs:     3,
		Cells:     cells,
		Timesteps: timesteps,
		P:         p,
		Network:   net,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	fmt.Printf("parallel server: 3 processes listening on TCP\n")
	for rank, addr := range srv.Addrs() {
		fmt.Printf("  process %d: %s\n", rank, addr)
	}

	design := sampling.NewDesign([]sampling.Distribution{
		sampling.Uniform{Low: -1, High: 1},
		sampling.Uniform{Low: 0, High: 2},
		sampling.Normal{Mean: 0, Std: 1},
	}, 64, 123)

	// Three waves of groups, each wave arriving while the server already
	// runs — no global startup barrier anywhere.
	waves := [][2]int{{0, 16}, {16, 40}, {40, 64}}
	totalStart := time.Now()
	for w, span := range waves {
		fmt.Printf("\nwave %d: groups %d..%d connect dynamically\n", w+1, span[0], span[1]-1)
		var wg sync.WaitGroup
		for g := span[0]; g < span[1]; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if err := runGroup(net, srv.MainAddr(), g, design.GroupRows(g)); err != nil {
					log.Printf("group %d: %v", g, err)
				}
			}(g)
		}
		wg.Wait()
		// Wait until the server has folded this wave before reporting.
		want := int64(span[1] * timesteps * 3)
		for srv.TotalFolds() < want {
			time.Sleep(5 * time.Millisecond)
		}
		fmt.Printf("  server folded %d groups so far; S1(cell 32, t0) = %.3f\n",
			span[1], probeFirst(srv))
	}
	srv.Stop(false)

	res := srv.Result()
	fmt.Printf("\nstudy complete in %v: %d messages over TCP, zero intermediate files\n",
		time.Since(totalStart).Round(time.Millisecond), res.Messages())
	fmt.Printf("final ubiquitous indices at t=0, cell 32:\n")
	for k := 0; k < p; k++ {
		fmt.Printf("  S%d = %6.3f   ST%d = %6.3f\n",
			k+1, res.FirstField(0, k)[32], k+1, res.TotalField(0, k)[32])
	}
	fmt.Printf("widest 95%% CI: %.3f (tighten it by sending more waves)\n", res.MaxCIWidth())
}

// probeFirst peeks at a running index estimate. Reading a live server is
// only safe through its public result after a stop; here the waves are
// drained, so the accumulators are quiescent.
func probeFirst(srv *server.Server) float64 {
	return srv.Procs()[0].Accumulator().FirstAt(0, 0, 32)
}
