package transport

import (
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"melissa/internal/codec"
	"melissa/internal/enc"
	"melissa/internal/wire"
)

// ForStudyCodec sizes only the frame bound, and degenerate shapes fall back
// rather than size anything by zero or a negative count.
func TestForStudySizing(t *testing.T) {
	if mid := ForStudyCodec(10000, 6, 4, false); mid != (Options{maxFrame: mid.maxFrame}) {
		t.Fatalf("ForStudyCodec set more than the frame bound: %+v", mid)
	}
	if d := ForStudyCodec(0, 0, 0, false); d != (Options{}) {
		t.Fatalf("degenerate study produced %+v", d)
	}
	if d, one := ForStudyCodec(100, -1, -5, false), ForStudyCodec(100, 1, 1, false); d != one {
		t.Fatalf("negative p/batch produced %+v, want %+v", d, one)
	}
}

// Every control frame fits under the floor of a study-shaped bound, and the
// floor is all a tiny study's bound is.
func TestForStudyControlFloor(t *testing.T) {
	if wire.MaxReportBytes > controlFrameBound {
		t.Fatalf("a report may take %d bytes, the control floor is %d", wire.MaxReportBytes, controlFrameBound)
	}
	if got := ForStudyCodec(16, 2, 1, false).maxFrame; got != controlFrameBound {
		t.Fatalf("a 16-cell study's frame bound is %d, want the control floor %d", got, controlFrameBound)
	}
}

// The codec flag no longer changes the options: the frame bound covers both
// framings, and no socket buffer is sized by an expected compression ratio.
func TestForStudyCodecSizing(t *testing.T) {
	for _, sh := range [][3]int{{16, 2, 1}, {10000, 6, 4}, {10_000_000, 20, 10}} {
		if raw, comp := ForStudyCodec(sh[0], sh[1], sh[2], false), ForStudyCodec(sh[0], sh[1], sh[2], true); raw != comp {
			t.Fatalf("shape %v: codec moved the options %+v -> %+v", sh, raw, comp)
		}
	}
}

// A TCP network built from ForStudyCodec options must move study-shaped frames
// end to end (the bufio layers frame correctly, including frames larger than
// the user-space buffer).
func TestTCPWithStudySizedBuffers(t *testing.T) {
	const cells, p, batch = 5000, 6, 2
	net := NewTCPNetwork(ForStudyCodec(cells, p, batch, false))
	recv, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := net.Dial(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	payload := make([]byte, 8*cells*(p+2)*batch)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	want := append([]byte(nil), payload...) // Send takes payload
	if err := send.Send(payload); err != nil {
		t.Fatal(err)
	}
	msg, err := recv.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Payload) != len(want) {
		t.Fatalf("got %d bytes, want %d", len(msg.Payload), len(want))
	}
	for i := 0; i < len(want); i += 997 {
		if msg.Payload[i] != want[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

// The TCP frame bound ForStudyCodec derives admits every frame the study's
// clients may send: the largest raw DataBatch and the codec's worst case,
// every range incompressible, and every control frame (controlFrameBound).
// Without a shape the 64 MiB default holds; a large shape lifts the bound.
func TestFrameBoundAdmitsStudyFrames(t *testing.T) {
	if got := NewTCPNetwork(Options{}).opts.maxFrame; got != defaultMaxFrame {
		t.Fatalf("no shape: bound %d, want %d", got, defaultMaxFrame)
	}
	for _, sh := range []struct{ cells, p, batch int }{{16, 2, 1}, {10000, 6, 4}, {100000, 6, 4}, {300000, 2, 1}, {1000000, 6, 4}} {
		bound := int64(ForStudyCodec(sh.cells, sh.p, sh.batch, false).maxFrame)
		if c := int64(ForStudyCodec(sh.cells, sh.p, sh.batch, true).maxFrame); c != bound {
			t.Fatalf("%+v: codec flag moved the bound %d -> %d", sh, bound, c)
		}
		nf := sh.p + 2
		raw := wire.DataBatchSizeBytes(sh.batch, nf, sh.cells)
		// Codec worst case with one range: the header, the step list, one
		// range entry, and the block at codec.MaxCompressedLen.
		comp := int64(1+3*8+4+8*sh.batch+4+4+8) + int64(codec.MaxCompressedLen(8*sh.batch*nf*sh.cells))
		if raw > bound || comp > bound || controlFrameBound > bound {
			t.Fatalf("%+v: bound %d below raw %d, codec %d or control %d", sh, bound, raw, comp, controlFrameBound)
		}
		if sh.cells > 1000 {
			continue
		}
		// An incompressible batch, encoded, in as many ranges as cells.
		rng := rand.New(rand.NewSource(1))
		m := &wire.DataBatch{CellHi: sh.cells}
		for s := 0; s < sh.batch; s++ {
			st := wire.DataStep{Timestep: s}
			for f := 0; f < nf; f++ {
				vs := make([]float64, sh.cells)
				for c := range vs {
					vs[c] = math.Float64frombits(rng.Uint64())
				}
				st.Fields = append(st.Fields, vs)
			}
			m.Steps = append(m.Steps, st)
		}
		var bc wire.BatchCompressor
		w := enc.NewWriter(0)
		bc.EncodeTo(w, m, slices.Repeat([]int{1}, sh.cells))
		if int64(w.Len()) > bound {
			t.Fatalf("%+v: incompressible codec frame of %d bytes over bound %d", sh, w.Len(), bound)
		}
	}
}

// A length prefix one byte over the study's frame bound closes the
// connection before any buffer is sized by it: no pooled buffer is made or
// taken, and nothing reaches the inbox.
func TestTCPOversizeFrameClosesBeforeAlloc(t *testing.T) {
	opts := ForStudyCodec(1000000, 6, 4, false) // a 256 MB bound, above the control floor
	n := NewTCPNetwork(opts)
	recv, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	before := ReadPoolStats()
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(opts.maxFrame+1))
	if _, err := conn.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("oversized prefix: read %v, want the receiver to close (EOF)", err)
	}
	after := ReadPoolStats()
	if after.Makes != before.Makes || after.Gets != before.Gets {
		t.Fatalf("oversized prefix sized a buffer: makes %d -> %d, gets %d -> %d",
			before.Makes, after.Makes, before.Gets, after.Gets)
	}
	if m, err := recv.Recv(10 * time.Millisecond); err == nil {
		t.Fatalf("oversized prefix delivered %d bytes", len(m.Payload))
	}
}
