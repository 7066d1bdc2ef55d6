// Package scheduler is the batch-scheduler substrate (Sec. 4.1.4): a virtual
// cluster with a fixed node count, a FCFS-with-backfill queue, walltime
// enforcement and cancellation. Melissa submits the server and every
// simulation group as independent jobs; the scheduler starting them as
// resources free up is what produces the elastic ramp-up of Fig. 6 (left).
//
// The scheduler is a pure state machine driven by explicit Tick(now) calls,
// so the same implementation serves the live launcher (real clock) and the
// discrete-event performance model (virtual clock).
package scheduler

import (
	"fmt"
	"sort"
	"time"
)

// JobID identifies a submitted job.
type JobID int

// JobState is the lifecycle state of a job.
type JobState int

// Job lifecycle states.
const (
	Pending JobState = iota
	Running
	Done   // completed normally
	Failed // reported failed by its owner
	Killed // cancelled or walltime-exceeded
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Killed:
		return "killed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is one batch job.
type Job struct {
	ID       JobID
	Name     string
	Nodes    int
	Walltime time.Duration // 0 = unlimited

	State      JobState
	SubmitTime time.Time
	StartTime  time.Time
	EndTime    time.Time
}

// Cluster is the virtual machine room.
type Cluster struct {
	totalNodes int

	nextID  JobID
	used    int
	queue   []*Job // pending, submit order
	running map[JobID]*Job
	jobs    map[JobID]*Job

	peakUsed int
}

// New returns a cluster with the given node count and EASY-style backfill
// (smaller jobs may start ahead of a blocked queue head).
func New(totalNodes int) *Cluster {
	if totalNodes < 1 {
		panic("scheduler: cluster needs at least one node")
	}
	return &Cluster{
		totalNodes: totalNodes,
		running:    make(map[JobID]*Job),
		jobs:       make(map[JobID]*Job),
	}
}

// TotalNodes returns the cluster size.
func (c *Cluster) TotalNodes() int { return c.totalNodes }

// UsedNodes returns the nodes currently allocated.
func (c *Cluster) UsedNodes() int { return c.used }

// PeakUsedNodes returns the historical allocation peak.
func (c *Cluster) PeakUsedNodes() int { return c.peakUsed }

// QueueLen returns the number of pending jobs.
func (c *Cluster) QueueLen() int { return len(c.queue) }

// RunningCount returns the number of running jobs.
func (c *Cluster) RunningCount() int { return len(c.running) }

// Job returns a job by id (nil if unknown).
func (c *Cluster) Job(id JobID) *Job { return c.jobs[id] }

// Submit enqueues a job. Jobs larger than the cluster are rejected.
func (c *Cluster) Submit(name string, nodes int, walltime time.Duration, now time.Time) (*Job, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("scheduler: job %q requests %d nodes", name, nodes)
	}
	if nodes > c.totalNodes {
		return nil, fmt.Errorf("scheduler: job %q requests %d of %d nodes", name, nodes, c.totalNodes)
	}
	c.nextID++
	j := &Job{
		ID:         c.nextID,
		Name:       name,
		Nodes:      nodes,
		Walltime:   walltime,
		State:      Pending,
		SubmitTime: now,
	}
	c.queue = append(c.queue, j)
	c.jobs[j.ID] = j
	return j, nil
}

// Tick advances the scheduler: it kills walltime-exceeded jobs, then starts
// pending jobs that fit. It returns the newly started and newly killed jobs
// (in deterministic order).
func (c *Cluster) Tick(now time.Time) (started, killed []*Job) {
	// Walltime enforcement first, releasing nodes for this tick's starts.
	var expired []JobID
	for id, j := range c.running {
		if j.Walltime > 0 && now.Sub(j.StartTime) >= j.Walltime {
			expired = append(expired, id)
		}
	}
	sort.Slice(expired, func(i, k int) bool { return expired[i] < expired[k] })
	for _, id := range expired {
		j := c.running[id]
		c.release(j, Killed, now)
		killed = append(killed, j)
	}

	// FCFS start with backfill: a job that does not fit stays queued
	// without holding back smaller ones behind it.
	remaining := c.queue[:0]
	for _, j := range c.queue {
		if j.Nodes <= c.totalNodes-c.used {
			j.State = Running
			j.StartTime = now
			c.used += j.Nodes
			if c.used > c.peakUsed {
				c.peakUsed = c.used
			}
			c.running[j.ID] = j
			started = append(started, j)
		} else {
			remaining = append(remaining, j)
		}
	}
	c.queue = remaining
	return started, killed
}

// Complete marks a running job as finished normally.
func (c *Cluster) Complete(id JobID, now time.Time) error {
	return c.finish(id, Done, now)
}

// Fail marks a running job as failed (owner-reported).
func (c *Cluster) Fail(id JobID, now time.Time) error {
	return c.finish(id, Failed, now)
}

// Cancel kills a running job or removes a pending one (launcher-initiated,
// e.g. after a group timeout or when convergence is reached).
func (c *Cluster) Cancel(id JobID, now time.Time) error {
	j, ok := c.jobs[id]
	if !ok {
		return fmt.Errorf("scheduler: unknown job %d", id)
	}
	switch j.State {
	case Pending:
		for i, q := range c.queue {
			if q.ID == id {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
		j.State = Killed
		j.EndTime = now
		return nil
	case Running:
		c.release(j, Killed, now)
		return nil
	default:
		return fmt.Errorf("scheduler: job %d already %s", id, j.State)
	}
}

func (c *Cluster) finish(id JobID, state JobState, now time.Time) error {
	j, ok := c.running[id]
	if !ok {
		return fmt.Errorf("scheduler: job %d is not running", id)
	}
	c.release(j, state, now)
	return nil
}

func (c *Cluster) release(j *Job, state JobState, now time.Time) {
	delete(c.running, j.ID)
	c.used -= j.Nodes
	j.State = state
	j.EndTime = now
}
