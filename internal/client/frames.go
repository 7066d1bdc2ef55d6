package client

import (
	"errors"
	"fmt"

	"melissa/internal/enc"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// routeOut is one route's frame under construction: the one client copy of
// a field goes straight into it, and the connection holds frames, never the
// caller's fields. A raw route lays its Data or DataBatch frame out in a
// transport buffer (w), where member f writes its float run at runs[f]; a
// codec route gathers its batch in codec word order and compresses it into
// w when the batch closes. steps counts the frame's steps (first..last),
// the open one included; live marks a slot for the open step, which a route
// whose server process already folded the step (resume floor) does not get.
type routeOut struct {
	w                  enc.Writer
	runs               []int
	batch              wire.WordBatch
	steps, first, last int
	live               bool
}

// openStep gives every route that needs step a slot for it: a fresh Data
// frame, the next step of the route's DataBatch frame, or the next step of
// its codec batch. The members fill the slots (putField), then closeStep
// ships what is complete.
func (c *Connection) openStep(step int) error {
	for ri, tr := range c.routes {
		skip, err := c.skipResumed(tr.ServerRank, step)
		if err != nil {
			return err
		}
		c.out[ri].live = !skip
	}
	c.maxStep = max(c.maxStep, step)
	group, nf := c.opts.GroupID, c.Layout.P+2
	for ri, tr := range c.routes {
		o := &c.out[ri]
		if !o.live {
			continue
		}
		lo, hi := tr.Cells.Lo, tr.Cells.Hi
		switch {
		case c.codec:
			if o.steps == 0 {
				o.batch.Reset(group, lo, hi, nf, c.frameSteps)
			}
			o.batch.Timesteps = append(o.batch.Timesteps, step)
		case c.frameSteps == 1:
			o.w.ResetTo(transport.GetPayload(int(wire.DataSizeBytes(nf, hi-lo))))
			wire.AppendDataHead(&o.w, group, step, lo, hi, nf)
		default:
			if o.steps == 0 {
				o.w.ResetTo(transport.GetPayload(int(wire.DataBatchSizeBytes(c.frameSteps, nf, hi-lo))))
				wire.AppendBatchHead(&o.w, group, lo, hi, 0)
			}
			wire.AppendStepHead(&o.w, step, nf)
		}
		if !c.codec {
			for f := range o.runs {
				o.runs[f] = wire.AppendFieldSlot(&o.w, hi-lo)
			}
		}
		if o.steps == 0 {
			o.first = step
		}
		o.last = step
		o.steps++
	}
	return nil
}

// putField copies member f's field of the open step into its slot on every
// route that has one. Members call it concurrently, each for its own f.
func (c *Connection) putField(f int, field []float64) {
	for ri, tr := range c.routes {
		o := &c.out[ri]
		if !o.live {
			continue
		}
		cut := field[tr.Cells.Lo:tr.Cells.Hi]
		if c.codec {
			o.batch.Put(o.steps-1, f, cut)
		} else {
			enc.PutF64s(o.w.Bytes()[o.runs[f]:], cut)
		}
	}
}

// closeStep ends the open step and ships every frame it completed.
func (c *Connection) closeStep() error { return c.shipFrames(c.frameSteps) }

// Flush ships any partially filled batches. It is a no-op when batching is
// off; when batching is on, call it after the last SendTimestep (Close also
// flushes, but swallows errors).
func (c *Connection) Flush() error { return c.shipFrames(1) }

// shipFrames ships every route's frame that holds at least atLeast steps
// and ends the open step. A failed route does not hold the others back: each
// frame ships, and its route starts a new one, whatever the other sends
// return.
func (c *Connection) shipFrames(atLeast int) error {
	var errs []error
	for ri := range c.out {
		if c.out[ri].steps >= atLeast {
			if err := c.ship(ri); err != nil {
				errs = append(errs, err)
			}
		}
		c.out[ri].live = false
	}
	return errors.Join(errs...)
}

// ship closes route ri's frame and sends it: a raw frame is laid out
// already, a codec batch is compressed now. The retention ring copies the
// frame before Send takes it; a failed send goes through reconnect and
// resend.
func (c *Connection) ship(ri int) error {
	tr, o := c.routes[ri], &c.out[ri]
	nf, cells := c.Layout.P+2, tr.Cells.Len()
	raw := wire.DataBatchSizeBytes(o.steps, nf, cells)
	switch {
	case c.codec:
		o.w.ResetTo(transport.GetPayload(int(raw)))
		c.comp.EncodeWords(&o.w, &o.batch)
	case c.frameSteps == 1:
		raw = wire.DataSizeBytes(nf, cells)
	default:
		wire.SetBatchSteps(o.w.Bytes(), o.steps)
	}
	frame := o.w.Bytes()
	o.w.ResetTo(nil)
	o.steps = 0
	c.retainFrame(ri, frame, o.first, o.last, raw)
	c.count(frame, raw)
	if err := c.sendFrame(tr.ServerRank, frame); err != nil {
		return fmt.Errorf("client: group %d steps %d..%d to server %d: %w", c.opts.GroupID,
			o.first, o.last, tr.ServerRank, err)
	}
	return nil
}

// count adds one frame, sent or resent, to the connection's and the
// process's wire counters; raw is its size in the raw framing.
func (c *Connection) count(frame []byte, raw int64) {
	c.wireBytes += int64(len(frame))
	c.rawBytes += raw
	cWireBytes.Add(int64(len(frame)))
	cRawBytes.Add(raw)
	cMessages.Inc()
}
