// melissa-server runs a standalone parallel Melissa server over TCP: M
// processes (goroutines with independent endpoints), each owning one block
// of the mesh, folding whatever simulation groups connect and push.
//
// The main-process address is printed on stdout (and optionally written to
// a file) so launchers and clients can find it; simulation groups retrieve
// the full layout through the dynamic-connection handshake.
//
// Example (two shells):
//
//	melissa-server -cells 4096 -timesteps 10 -p 3 -procs 4 -addr-file /tmp/melissa.addr
//	melissa-client -server $(cat /tmp/melissa.addr) -group 0 ...
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"melissa"
	"melissa/internal/cliflags"
	"melissa/internal/server"
)

func main() {
	procs := flag.Int("procs", 2, "server processes (M)")
	p := flag.Int("p", 3, "number of uncertain parameters")
	addrFile := flag.String("addr-file", "", "write the main process address to this file")
	restore := flag.Bool("restore", false, "restore from the last checkpoint before serving")
	launcherAddr := flag.String("launcher", "", "launcher address for reports (the server's heartbeat)")
	f := cliflags.Register(flag.CommandLine, "melissa-server")
	flag.Parse()

	if err := melissa.SetLogging(f.LogLevel, f.LogJSON); err != nil {
		log.Fatalf("melissa-server: -log-level: %v", err)
	}
	if f.MetricsAddr != "" {
		ep, err := melissa.ServeTelemetry(f.MetricsAddr)
		if err != nil {
			log.Fatalf("melissa-server: -metrics-addr: %v", err)
		}
		defer ep.Close()
		log.Printf("melissa-server: telemetry at http://%s/metrics", ep.Addr())
	}
	stats, err := f.StatsOptions()
	if err != nil {
		log.Fatalf("melissa-server: %v", err)
	}

	cfg := server.Config{
		Procs:        *procs,
		FoldWorkers:  f.FoldWorkers,
		Cells:        f.Cells,
		Timesteps:    f.Timesteps,
		P:            *p,
		Stats:        stats,
		Network:      f.TCPNetwork(f.Cells, *p),
		GroupTimeout: f.GroupTimeout,
		LauncherAddr: *launcherAddr,
		WireCodec:    f.WireCodec,
	}
	cfg.CheckpointDir, cfg.CheckpointInterval = f.Checkpoints()

	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("melissa-server: %v", err)
	}
	if *restore {
		if err := srv.Restore(); err != nil {
			log.Fatalf("melissa-server: restore: %v", err)
		}
		log.Printf("melissa-server: restored from %s", cfg.CheckpointDir)
	}

	fmt.Printf("melissa-server: main process at %s\n", srv.MainAddr())
	for rank, addr := range srv.Addrs() {
		log.Printf("  process %d: %s (cells [%d,%d))", rank, addr,
			srv.Partitions()[rank].Lo, srv.Partitions()[rank].Hi)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.MainAddr()), 0o644); err != nil {
			log.Fatalf("melissa-server: %v", err)
		}
	}

	srv.Start()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("melissa-server: stopping (final checkpoint: %v)", cfg.CheckpointDir != "")
	srv.Stop(cfg.CheckpointDir != "")

	res, st := srv.Result(), srv.Status()
	log.Printf("melissa-server: done — %d messages, %d finished groups, %d running",
		res.Messages(), st.GroupsFinished, st.GroupsRunning)
	if ws := res.WireStats(); ws.Messages > 0 {
		log.Printf("melissa-server: field traffic — %.1f MB on the wire vs %.1f MB raw (%.2fx, %.1f MB saved)",
			float64(ws.WireBytes)/1e6, float64(ws.RawBytes)/1e6, ws.Ratio(), float64(ws.Saved())/1e6)
	}
	if ck := res.Checkpoints(); ck.Writes > 0 {
		log.Printf("melissa-server: checkpoints — %d written (%d skipped), %.1f MB durable; ingest stalled %v of %v total write time",
			ck.Writes, ck.Skipped, float64(ck.BytesWritten)/1e6,
			ck.StallDuration.Round(time.Microsecond), ck.WriteDuration.Round(time.Microsecond))
	}
}
