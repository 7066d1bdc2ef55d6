package transport

import (
	"sync"
	"time"
)

// inbox is a receiver's bounded FIFO of delivered messages, shared by the
// in-memory and TCP receivers. Its ring grows by doubling with what it holds,
// up to limit messages, so an inbox that only ever receives one reply costs
// one slot, not inboxLimit of them. Receivers wait on ready, senders on room;
// close wakes both.
type inbox struct {
	mu          sync.Mutex
	ready, room sync.Cond
	ring        []Message
	head, n     int // index of the oldest message, messages held
	limit       int
	closed      bool
}

// init readies an inbox in place (its conditions point at its own lock). A
// limit ≤ 0 means inboxLimit.
func (in *inbox) init(limit int) {
	in.limit = limit
	if limit <= 0 {
		in.limit = inboxLimit
	}
	in.ready.L, in.room.L = &in.mu, &in.mu
}

// put appends m, waiting while the inbox is full. It fails with ErrClosed
// once the inbox closes or *quit (when quit is non-nil) is set; *quit is
// guarded by mu, and whoever sets it wakes room. On error m stays the
// caller's.
func (in *inbox) put(m Message, quit *bool) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for in.n == in.limit && !in.closed && (quit == nil || !*quit) {
		in.room.Wait()
	}
	if in.closed || quit != nil && *quit {
		in.room.Signal() // a wake this sender will not use goes to the next
		return ErrClosed
	}
	if in.n == len(in.ring) {
		ring := make([]Message, min(max(2*in.n, 1), in.limit))
		for i := range in.n {
			ring[i] = in.ring[(in.head+i)%len(in.ring)]
		}
		in.ring, in.head = ring, 0
	}
	in.ring[(in.head+in.n)%len(in.ring)] = m
	in.n++
	in.ready.Signal()
	return nil
}

// recv takes the oldest message, waiting up to timeout for one (≤ 0 waits
// indefinitely). A closed inbox still hands out what it holds, then returns
// ErrClosed.
func (in *inbox) recv(timeout time.Duration) (Message, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.n == 0 && !in.closed {
		if err := in.wait(timeout); err != nil {
			return Message{}, err
		}
	}
	if in.n == 0 {
		return Message{}, ErrClosed
	}
	m := in.ring[in.head]
	in.ring[in.head] = Message{}
	in.head = (in.head + 1) % len(in.ring)
	in.n--
	in.room.Signal()
	return m, nil
}

// wait sleeps, holding mu between wakes, until the inbox holds a message or
// closes, or timeout (when > 0) passes. Only an empty inbox arms a timer.
func (in *inbox) wait(timeout time.Duration) error {
	expired := false
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			in.mu.Lock()
			expired = true
			in.ready.Broadcast()
			in.mu.Unlock()
		})
		defer t.Stop()
	}
	for in.n == 0 && !in.closed {
		if expired {
			return ErrTimeout
		}
		in.ready.Wait()
	}
	return nil
}

// close refuses further messages and wakes every waiter. Messages already
// held stay deliverable.
func (in *inbox) close() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closed = true
	in.ready.Broadcast()
	in.room.Broadcast()
}
