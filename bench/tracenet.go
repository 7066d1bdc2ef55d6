package main

import (
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/transport"
	"melissa/internal/wire"
)

// tracedNetwork is the traced run's transport.Network wrapper: it forwards
// every call to the workload's real network and records, from outside, how
// long senders sat in Send, how long inboxes sat empty in Recv, and what
// crossed (frames by class, bytes, dials). It is passed to the program as
// launcher.Config.Network; the untraced runs use the real network directly.
type tracedNetwork struct {
	inner transport.Network
	rec   *recorder

	dials      atomic.Int64
	dataFrames atomic.Int64
	ctrlFrames atomic.Int64
	dataBytes  atomic.Int64
	sendNs     atomic.Int64 // time inside Send for data frames

	mu        sync.Mutex
	receivers []*tracedReceiver

	// Outage bookkeeping for crash_resume_mem: when a data inbox is closed
	// while the study runs (the server kill) and when a re-listened inbox
	// next receives a data frame.
	downAt, upAt atomic.Int64
}

func newTracedNetwork(inner transport.Network) *tracedNetwork {
	return &tracedNetwork{inner: inner}
}

func (n *tracedNetwork) Listen(hint string) (transport.Receiver, error) {
	r, err := n.inner.Listen(hint)
	if err != nil {
		return nil, err
	}
	tr := &tracedReceiver{Receiver: r, net: n, relisten: hint != ""}
	n.mu.Lock()
	n.receivers = append(n.receivers, tr)
	n.mu.Unlock()
	return tr, nil
}

func (n *tracedNetwork) Dial(addr string) (transport.Sender, error) {
	s, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	n.dials.Add(1)
	ts := &tracedSender{Sender: s, net: n}
	if qp, ok := s.(transport.QueueProber); ok {
		return &probedSender{tracedSender: ts, QueueProber: qp}, nil
	}
	return ts, nil
}

// isData reports whether a payload is a bulk field frame.
func isData(payload []byte) bool {
	switch wire.PayloadType(payload) {
	case wire.TypeData, wire.TypeDataBatch, wire.TypeDataBatchC:
		return true
	}
	return false
}

// frameGroup returns the group id of a data frame, read with the program's
// own lazy header views; -1 when the frame does not parse.
func frameGroup(payload []byte) int32 {
	switch wire.PayloadType(payload) {
	case wire.TypeData:
		var v wire.DataView
		if v.Parse(payload) == nil {
			return int32(v.GroupID)
		}
	case wire.TypeDataBatch:
		var v wire.DataBatchView
		if v.Parse(payload) == nil {
			return int32(v.GroupID)
		}
	case wire.TypeDataBatchC:
		var v wire.DataBatchCView
		if v.Parse(payload) == nil {
			return int32(v.GroupID)
		}
	}
	return -1
}

type tracedSender struct {
	transport.Sender
	net *tracedNetwork
}

// probedSender adds the QueueProber the adaptive-batching fallback looks for,
// when the wrapped sender has one.
type probedSender struct {
	*tracedSender
	transport.QueueProber
}

func (s *tracedSender) Send(payload []byte) error {
	if !isData(payload) {
		s.net.ctrlFrames.Add(1)
		return s.Sender.Send(payload)
	}
	group := frameGroup(payload)
	t0 := s.net.rec.now()
	err := s.Sender.Send(payload)
	t1 := s.net.rec.now()
	s.net.dataFrames.Add(1)
	s.net.dataBytes.Add(int64(len(payload)))
	s.net.sendNs.Add(t1 - t0)
	s.net.rec.span(spanTransportSend, group, len(payload), t0, t1)
	return err
}

type tracedReceiver struct {
	transport.Receiver
	net      *tracedNetwork
	relisten bool // listening on a requested address: a restarted server's inbox

	waitNs atomic.Int64 // time inside Recv, whatever it returned
	data   atomic.Int64 // data frames received
}

func (r *tracedReceiver) Recv(timeout time.Duration) (transport.Message, error) {
	t0 := r.net.rec.now()
	msg, err := r.Receiver.Recv(timeout)
	t1 := r.net.rec.now()
	r.waitNs.Add(t1 - t0)
	if err == nil && isData(msg.Payload) {
		if r.data.Add(1) == 1 && r.relisten {
			r.net.upAt.CompareAndSwap(0, t1)
		}
		r.net.rec.span(spanTransportRecv, frameGroup(msg.Payload), len(msg.Payload), t0, t1)
	}
	return msg, err
}

func (r *tracedReceiver) Close() error {
	if r.data.Load() > 0 {
		r.net.downAt.CompareAndSwap(0, r.net.rec.now())
	}
	return r.Receiver.Close()
}

// recvWait totals the time data inboxes (receivers that got at least one data
// frame: the server processes) spent inside Recv.
func (n *tracedNetwork) recvWait() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var ns int64
	for _, r := range n.receivers {
		if r.data.Load() > 0 {
			ns += r.waitNs.Load()
		}
	}
	return float64(ns) / 1e9
}

// outage returns how long the study had no server to send to: from the first
// close of a data inbox to the first data frame a re-listened inbox received.
// Zero when no server was restarted.
func (n *tracedNetwork) outage() float64 {
	down, up := n.downAt.Load(), n.upAt.Load()
	if down == 0 || up <= down {
		return 0
	}
	return float64(up-down) / 1e9
}
