// melissa-client runs one simulation group against a running melissa-server
// over TCP: it performs the dynamic-connection handshake, runs the p+2
// pick-freeze simulations in lockstep and streams every timestep through
// the two-stage transfer, then exits — exactly one batch job of the paper's
// study.
//
// The client reconstructs the group's parameter rows from (study, seed,
// groups, group), so any number of independent client processes share one
// consistent design without a coordination service.
//
// Example:
//
//	melissa-client -server 127.0.0.1:40001 -study synthetic -cells 1024 \
//	    -timesteps 10 -groups 100 -seed 7 -group 42
package main

import (
	"flag"
	"log"
	"time"

	"melissa"
	"melissa/internal/client"
	"melissa/internal/cliflags"
	"melissa/internal/studies"
)

func main() {
	serverAddr := flag.String("server", "", "address of the server main process (required)")
	group := flag.Int("group", 0, "this group's row index i")
	connectTimeout := flag.Duration("connect-timeout", 10*time.Second, "handshake timeout")
	f := cliflags.Register(flag.CommandLine, "melissa-client")
	flag.Parse()

	if *serverAddr == "" {
		log.Fatal("melissa-client: -server is required")
	}
	if err := melissa.SetLogging(f.LogLevel, f.LogJSON); err != nil {
		log.Fatalf("melissa-client: -log-level: %v", err)
	}
	if f.MetricsAddr != "" {
		ep, err := melissa.ServeTelemetry(f.MetricsAddr)
		if err != nil {
			log.Fatalf("melissa-client: -metrics-addr: %v", err)
		}
		defer ep.Close()
		log.Printf("melissa-client: telemetry at http://%s/metrics", ep.Addr())
	}
	st, err := studies.Build(f.Study, f.NX, f.NY, f.Cells, f.Timesteps)
	if err != nil {
		log.Fatalf("melissa-client: %v", err)
	}
	design := st.Design(f.Groups, f.Seed)
	if *group < 0 || *group >= design.N() {
		log.Fatalf("melissa-client: group %d outside design [0,%d)", *group, design.N())
	}

	start := time.Now()
	// A standalone client has no launcher feeding it server congestion
	// hints; MaxBatchSteps without a controller falls back to the local
	// send-queue signal, which backs up exactly when the server stalls.
	err = client.RunGroup(f.TCPNetwork(st.Cells, st.P()), *serverAddr, client.RunConfig{
		ConnectOpts: client.ConnectOpts{
			GroupID:       *group,
			SimRanks:      f.SimRanks,
			Timeout:       *connectTimeout,
			Retry:         f.RetryPolicy(),
			BatchSteps:    f.BatchSteps,
			MaxBatchSteps: f.MaxBatchSteps,
			WireCodec:     f.WireCodec,
		},
		Rows: design.GroupRows(*group),
		Sim:  st.Sim,
	})
	if err != nil {
		log.Fatalf("melissa-client: group %d failed: %v", *group, err)
	}
	log.Printf("melissa-client: group %d (%d simulations x %d timesteps) done in %v",
		*group, st.P()+2, st.Timesteps, time.Since(start).Round(time.Millisecond))
}
