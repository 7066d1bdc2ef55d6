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
	// Stop, when non-nil and closed, ends the run at its next step, drain
	// poll or reconnect with errStopped: the job was killed, or the study it
	// served is over.
	Stop <-chan struct{}
}

// errStopped is what a run returns when RunConfig.Stop closed.
var errStopped = errors.New("client: attempt stopped")

// stopped reports whether the attempt's Stop channel has closed.
func (c *Connection) stopped() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// sleep waits d, or until the attempt is stopped; it reports whether it
// slept the whole d.
func (c *Connection) sleep(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-c.stop:
		return false
	}
}

// RunGroup executes one simulation group end to end: handshake, p+2
// simulations advancing in lockstep, per-timestep two-stage sends, teardown.
// It is the body of one group batch job.
//
// The p+2 simulations run as concurrent goroutines synchronized per
// timestep (the MPMD execution of Sec. 4.1.2). The group opens step t on the
// connection, each member's emit of t waits for that and writes its field
// straight into the frames (the one client copy of a field), and once all
// p+2 have written, t closes and ships while the members compute t+1. No
// member writes t+1 before t has shipped, which keeps the server-side
// assembly memory bounded.
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
	conn.stop = rc.Stop
	// A failed group ships nothing more: a step may be half written.
	defer conn.closeSenders()

	if got, want := len(rc.Rows), conn.Layout.P+2; got != want {
		return fmt.Errorf("client: group %d has %d rows but the server expects p+2 = %d", rc.GroupID, got, want)
	}

	// Launch the p+2 member simulations. turns[s] hands member s the open
	// step; dones[s] carries back the outcome of its emit and closes when
	// its Run returns. The run returns only after every member has.
	quit := make(chan struct{})
	turns := make([]chan int, len(rc.Rows))
	dones := make([]chan error, len(rc.Rows))
	defer func() {
		close(quit)
		for _, done := range dones {
			for range done {
			}
		}
	}()
	for s, row := range rc.Rows {
		turn, done := make(chan int, 1), make(chan error, 1)
		turns[s], dones[s] = turn, done
		go func() {
			defer close(done)
			rc.Sim.Run(row, func(step int, field []float64) bool {
				var open int
				select {
				case open = <-turn:
				case <-quit:
					return false
				}
				err := conn.checkField(s, field)
				if step != open {
					err = fmt.Errorf("client: group %d simulation %d emitted step %d, want %d",
						rc.GroupID, s, step, open)
				}
				if err == nil {
					conn.putField(s, field)
				}
				done <- err
				return err == nil
			})
		}()
	}

	for step := 0; step < conn.Layout.Timesteps; step++ {
		if conn.stopped() {
			return errStopped
		}
		if err := conn.openStep(step); err != nil {
			return err
		}
		for _, turn := range turns {
			turn <- step
		}
		for s, done := range dones {
			err, ok := <-done
			if !ok {
				return fmt.Errorf("client: group %d simulation %d ended early at step %d", rc.GroupID, s, step)
			}
			if err != nil {
				return err
			}
		}
		if rc.BeforeStep != nil {
			if err := rc.BeforeStep(step); err != nil {
				return fmt.Errorf("client: group %d failed at step %d: %w", rc.GroupID, step, err)
			}
		}
		if rc.StepDelay > 0 {
			time.Sleep(rc.StepDelay)
		}
		if err := conn.closeStep(); err != nil {
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
		olog.Default.Warn("client.durable_drain_timeout", "group", rc.GroupID, "err", err)
	}
	return nil
}
