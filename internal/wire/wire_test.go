package wire

import (
	"math"
	"reflect"
	"testing"

	"melissa/internal/mesh"
)

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	payload := Encode(msg)
	got, err := Decode(payload)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	in := &Hello{GroupID: 42, SimRanks: 4, ReplyAddr: "mem://17", Caps: CapWireCodec, Resume: true}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v want %+v", got, in)
	}
}

func TestResumeRoundTrip(t *testing.T) {
	in := &Resume{GroupID: 17, ReplyAddr: "mem://42"}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v want %+v", got, in)
	}
	// A liveness ping has no reply address.
	ping := &Resume{GroupID: 3}
	if got := roundTrip(t, ping); !reflect.DeepEqual(got, ping) {
		t.Fatalf("ping: %+v", got)
	}
}

func TestResumeAckRoundTrip(t *testing.T) {
	in := &ResumeAck{ProcRank: 2, GroupID: 17, LastStep: 41, DurableStep: 30}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v want %+v", got, in)
	}
	// A process that never folded this group acks -1; without checkpointing
	// the durable frontier is the NoDurability sentinel.
	fresh := &ResumeAck{ProcRank: 0, GroupID: 5, LastStep: -1, DurableStep: NoDurability}
	if got := roundTrip(t, fresh); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("fresh ack: %+v", got)
	}
}

func TestCheckpointReqRoundTrip(t *testing.T) {
	in := &CheckpointReq{GroupID: 12}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v want %+v", got, in)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	in := &Welcome{
		Timesteps:   100,
		Cells:       9603840,
		P:           6,
		ServerAddr:  []string{"a:1", "b:2", "c:3"},
		Partitions:  []mesh.Partition{{Lo: 0, Hi: 3201280}, {Lo: 3201280, Hi: 6402560}, {Lo: 6402560, Hi: 9603840}},
		Caps:        CapWireCodec,
		FoldShards:  []int{8, 8, 8},
		LastStep:    37,
		DurableStep: 30,
	}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v want %+v", got, in)
	}
	// Non-resume handshakes carry -1 (no frontier); a server without
	// checkpointing advertises the NoDurability sentinel.
	in.LastStep = -1
	in.DurableStep = NoDurability
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v want %+v", got, in)
	}
}

func TestDataRoundTrip(t *testing.T) {
	in := &Data{
		GroupID:  7,
		Timestep: 80,
		CellLo:   100,
		CellHi:   104,
		Fields: [][]float64{
			{1, 2, 3, 4},
			{5, 6, 7, 8},
			{9, 10, 11, 12},
		},
	}
	got := roundTrip(t, in).(*Data)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v want %+v", got, in)
	}
}

func TestDataSizeMatchesEncoding(t *testing.T) {
	for _, tc := range []struct{ fields, cells int }{
		{8, 1}, {8, 1000}, {3, 17}, {2, 0},
	} {
		fields := make([][]float64, tc.fields)
		for i := range fields {
			fields[i] = make([]float64, tc.cells)
		}
		d := &Data{CellLo: 0, CellHi: tc.cells, Fields: fields}
		if got, want := int64(len(Encode(d))), DataSizeBytes(tc.fields, tc.cells); got != want {
			t.Errorf("fields=%d cells=%d: encoded %d bytes, model says %d", tc.fields, tc.cells, got, want)
		}
	}
}

// TestHeartbeatReportStopRoundTrip keeps its name from when heartbeats and
// stop requests were messages of their own; the Report is the one left.
func TestHeartbeatReportStopRoundTrip(t *testing.T) {
	rep := &Report{
		ProcRank:      2,
		Epoch:         3,
		Seq:           17,
		Sync:          SyncFirst | SyncLast,
		Started:       []int{1, 5, 9},
		Finished:      []int{0, 2},
		FinishedCount: 2,
		TimedOut:      []int{5},
		MaxCIWidth:    0.125,
		Messages:      4242,
	}
	if got := roundTrip(t, rep); !reflect.DeepEqual(got, rep) {
		t.Fatalf("report: %+v", got)
	}
	// Empty lists survive (decoded as nil or empty — compare fields).
	rep2 := &Report{ProcRank: 0, MaxCIWidth: math.Inf(1)}
	got := roundTrip(t, rep2).(*Report)
	if got.ProcRank != 0 || got.Started != nil || got.Finished != nil || got.TimedOut != nil || !math.IsInf(got.MaxCIWidth, 1) {
		t.Fatalf("empty report: %+v", got)
	}
}

// A report at the id bound encodes to exactly MaxReportBytes, and one id
// more is rejected.
func TestReportBound(t *testing.T) {
	ids := make([]int, MaxReportIDs)
	rep := &Report{Started: ids[:1], Finished: ids[1 : MaxReportIDs-1], TimedOut: ids[MaxReportIDs-1:]}
	b := Encode(rep)
	if len(b) != MaxReportBytes {
		t.Fatalf("a full report encodes to %d bytes, MaxReportBytes is %d", len(b), MaxReportBytes)
	}
	if _, err := Decode(b); err != nil {
		t.Fatal(err)
	}
	rep.Finished = append(rep.Finished, 0)
	if _, err := Decode(Encode(rep)); err == nil {
		t.Fatalf("a report of %d ids decoded", MaxReportIDs+1)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := Decode([]byte{99}); err == nil {
		t.Error("unknown type accepted")
	}
	for _, retired := range [][]byte{{4, 's', 0, 0, 0}, {6, 1}} {
		if _, err := Decode(retired); err == nil {
			t.Errorf("retired tag %d accepted", retired[0])
		}
	}
	good := Encode(&Hello{GroupID: 1, SimRanks: 2, ReplyAddr: "x"})
	if _, err := Decode(good[:len(good)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := Decode(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestEncodeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Encode(struct{}{})
}
