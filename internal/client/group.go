package client

import (
	"errors"
	"fmt"
	"time"

	olog "melissa/internal/obs/log"
	"melissa/internal/transport"
)

// RunConfig describes one simulation-group job: the connection options plus
// what the group runs over the connection.
type RunConfig struct {
	// ConnectOpts carries the group id, the rank count, the handshake
	// timeout (default 10 s), the resilience policy and the framing knobs.
	// With a Retry budget the run ends with a durable drain after the final
	// Flush; on a drain timeout the group completes anyway (legacy at-risk
	// window), while connection failures during the drain fail the attempt so
	// the launcher replays it.
	ConnectOpts
	// Rows are the p+2 parameter sets, in intra-group order
	// (A_i, B_i, C^1_i .. C^p_i), from sampling.Design.GroupRows.
	Rows [][]float64
	// Sim is the solver each of the p+2 simulations runs.
	Sim Simulation
	// BeforeStep, when non-nil, is a fault-injection hook called before
	// each timestep is sent. Returning an error makes the whole group fail
	// (the paper treats a group as a single failure unit, Sec. 4.2).
	BeforeStep func(step int) error
	// StepDelay inserts an artificial pause per timestep (straggler
	// injection for the timeout-detection tests).
	StepDelay time.Duration
}

// stepResult carries one simulation's field for one step across the
// lockstep barrier.
type stepResult struct {
	step  int
	field []float64
}

// RunGroup executes one simulation group end to end: handshake, p+2
// simulations advancing in lockstep, per-timestep two-stage sends, teardown.
// It is the body of one group batch job.
//
// The p+2 simulations run as concurrent goroutines synchronized per
// timestep (the MPMD execution of Sec. 4.1.2): no simulation starts
// timestep t+1 before every simulation's timestep t has been shipped,
// which keeps the server-side assembly memory bounded.
func RunGroup(netw transport.Network, mainAddr string, rc RunConfig) error {
	if len(rc.Rows) < 3 {
		return fmt.Errorf("client: group %d has %d rows, need p+2 ≥ 3", rc.GroupID, len(rc.Rows))
	}
	if rc.Sim == nil {
		return fmt.Errorf("client: group %d has no simulation", rc.GroupID)
	}
	if rc.Timeout <= 0 {
		rc.Timeout = 10 * time.Second
	}
	if rc.SimRanks < 1 {
		rc.SimRanks = 1
	}
	conn, err := ConnectWith(netw, mainAddr, rc.ConnectOpts)
	if err != nil {
		return err
	}
	defer conn.Close()

	if got, want := len(rc.Rows), conn.Layout.P+2; got != want {
		return fmt.Errorf("client: group %d has %d rows but the server expects p+2 = %d", rc.GroupID, got, want)
	}

	// Launch the p+2 member simulations; each hands its per-step field
	// through a rendezvous channel and blocks until the group loop takes it.
	quit := make(chan struct{})
	defer close(quit)
	chans := make([]chan stepResult, len(rc.Rows))
	for s, row := range rc.Rows {
		ch := make(chan stepResult)
		chans[s] = ch
		go func(row []float64, ch chan stepResult) {
			defer close(ch)
			rc.Sim.Run(row, func(step int, field []float64) bool {
				cp := make([]float64, len(field))
				copy(cp, field)
				select {
				case ch <- stepResult{step: step, field: cp}:
					return true
				case <-quit:
					return false
				}
			})
		}(row, ch)
	}

	fields := make([][]float64, len(rc.Rows))
	for step := 0; step < conn.Layout.Timesteps; step++ {
		for s, ch := range chans {
			res, ok := <-ch
			if !ok {
				return fmt.Errorf("client: group %d simulation %d ended early at step %d", rc.GroupID, s, step)
			}
			if res.step != step {
				return fmt.Errorf("client: group %d simulation %d emitted step %d, want %d",
					rc.GroupID, s, res.step, step)
			}
			fields[s] = res.field
		}
		if rc.BeforeStep != nil {
			if err := rc.BeforeStep(step); err != nil {
				return fmt.Errorf("client: group %d failed at step %d: %w", rc.GroupID, step, err)
			}
		}
		if rc.StepDelay > 0 {
			time.Sleep(rc.StepDelay)
		}
		if err := conn.SendTimestep(step, fields); err != nil {
			return err
		}
	}
	if err := conn.Flush(); err != nil {
		return err
	}
	// Durable drain: a finished group has no one left to resend its window,
	// so wait (bounded) for the server to checkpoint past its last step. A
	// timeout keeps the group complete with the legacy at-risk window; a
	// connection failure fails the attempt so the launcher replays it.
	if err := conn.WaitDurable(); err != nil {
		if !errors.Is(err, errDurableDrain) {
			return err
		}
		olog.Warnw("client.durable_drain_timeout", "group", rc.GroupID, "err", err)
	}
	return nil
}
