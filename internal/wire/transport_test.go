package wire_test

import (
	"reflect"
	"testing"
	"time"

	"melissa/internal/enc"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// This file is an external test: the transport sizes its frame bound by the
// wire layout, so the wire package's own tests cannot import it.

// TestFieldRangeInPlaceOverTransports: Data and DataBatch frames delivered
// by either transport lend every field range in place. The pad bytes put
// each float run on an 8-byte boundary and transport buffers come from make,
// so a nil here means the server silently went back to copying.
func TestFieldRangeInPlaceOverTransports(t *testing.T) {
	if enc.F64View(make([]byte, 8)) == nil {
		t.Skip("big-endian host: fields are always copied")
	}
	nets := map[string]transport.Network{
		"mem": transport.NewMemNetwork(transport.Options{}),
		"tcp": transport.NewTCPNetwork(transport.Options{}),
	}
	for name, n := range nets {
		t.Run(name, func(t *testing.T) {
			r, err := n.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			s, err := n.Dial(r.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, cells := range []int{1, 3, 17, 1000} {
				d, b := wire.ViewTestData(cells, 4), wire.ViewTestBatch(3, cells, 4)
				for _, frame := range [][]byte{wire.Encode(d), wire.Encode(b)} {
					if err := s.Send(frame); err != nil {
						t.Fatal(err)
					}
				}
				msg, err := r.Recv(5 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				var dv wire.DataView
				if err := dv.Parse(msg.Payload); err != nil {
					t.Fatal(err)
				}
				for f := range d.Fields {
					for lo := 0; lo < cells; lo += max(1, cells/3) {
						if got := dv.FieldRange(0, f, lo, cells); got == nil || !reflect.DeepEqual(got, d.Fields[f][lo:]) {
							t.Fatalf("%d cells: Data field %d from cell %d lent %v", cells, f, lo, got)
						}
					}
				}
				msg, err = r.Recv(5 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				var bv wire.DataBatchView
				if err := bv.Parse(msg.Payload); err != nil {
					t.Fatal(err)
				}
				for st := range b.Steps {
					for f := range b.Steps[st].Fields {
						if got := bv.FieldRange(st, f, 0, cells); got == nil || !reflect.DeepEqual(got, b.Steps[st].Fields[f]) {
							t.Fatalf("%d cells: batch step %d field %d lent %v", cells, st, f, got)
						}
					}
				}
			}
		})
	}
}
