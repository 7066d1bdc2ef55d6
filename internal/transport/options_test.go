package transport

import (
	"testing"
	"time"
)

func TestForStudySizing(t *testing.T) {
	// Small study: buffers clamp up to the 64 KiB floor.
	small := ForStudyCodec(16, 2, 1, false)
	if small.SendSockBytes != minSockBytes || small.RecvSockBytes != minSockBytes {
		t.Fatalf("small study sock bytes = %d/%d, want %d", small.SendSockBytes, small.RecvSockBytes, minSockBytes)
	}
	if small.FrameBufBytes != 1<<16 {
		t.Fatalf("small study frame buf = %d, want %d", small.FrameBufBytes, 1<<16)
	}

	// Mid-size study: buffers track the frame size (cells × (p+2) × batch ×
	// 8 bytes plus header allowance).
	mid := ForStudyCodec(10000, 6, 4, false)
	wantFrame := 8*10000*(6+2)*4 + 4096
	if mid.SendSockBytes != wantFrame || mid.RecvSockBytes != wantFrame {
		t.Fatalf("mid study sock bytes = %d/%d, want %d", mid.SendSockBytes, mid.RecvSockBytes, wantFrame)
	}
	if mid.FrameBufBytes != wantFrame {
		t.Fatalf("mid study frame buf = %d, want %d", mid.FrameBufBytes, wantFrame)
	}

	// Huge partition: clamped so one connection cannot pin unbounded memory.
	huge := ForStudyCodec(10_000_000, 20, 10, false)
	if huge.SendSockBytes != maxSockBytes || huge.RecvSockBytes != maxSockBytes {
		t.Fatalf("huge study sock bytes = %d/%d, want %d", huge.SendSockBytes, huge.RecvSockBytes, maxSockBytes)
	}
	if huge.FrameBufBytes != maxFrameBufSize {
		t.Fatalf("huge study frame buf = %d, want %d", huge.FrameBufBytes, maxFrameBufSize)
	}

	// Degenerate shapes fall back to defaults rather than zero-size buffers.
	if d := ForStudyCodec(0, 0, 0, false); d.SendSockBytes != 0 || d.FrameBufBytes != 1<<16 {
		t.Fatalf("degenerate study produced %+v", d)
	}
	if d := ForStudyCodec(100, -1, -5, false); d.SendSockBytes < minSockBytes {
		t.Fatalf("negative p/batch produced %+v", d)
	}

	// Message-count buffers keep their defaults.
	if mid.SendBuffer != DefaultOptions().SendBuffer || mid.RecvBuffer != DefaultOptions().RecvBuffer {
		t.Fatalf("ForStudyCodec changed message-count buffers: %+v", mid)
	}
}

func TestForStudyCodecSizing(t *testing.T) {
	// With the codec negotiated, buffers plan for the compressed frame size
	// at the conservative divisor.
	raw := ForStudyCodec(10000, 6, 4, false)
	comp := ForStudyCodec(10000, 6, 4, true)
	wantFrame := 8*10000*(6+2)*4/codecFrameDivisor + 4096
	if comp.SendSockBytes != wantFrame || comp.FrameBufBytes != wantFrame {
		t.Fatalf("codec sizing = %d/%d, want %d", comp.SendSockBytes, comp.FrameBufBytes, wantFrame)
	}
	if comp.SendSockBytes >= raw.SendSockBytes {
		t.Fatalf("codec sizing %d not smaller than raw %d", comp.SendSockBytes, raw.SendSockBytes)
	}

	// The 64 KiB floors still hold for small compressed frames.
	small := ForStudyCodec(16, 2, 1, true)
	if small.SendSockBytes != minSockBytes || small.FrameBufBytes != 1<<16 {
		t.Fatalf("small codec study produced %+v", small)
	}
}

// A TCP network built from ForStudyCodec options must move study-shaped frames
// end to end (the socket-buffer calls succeed and the sized bufio layers
// frame correctly, including frames larger than the user-space buffer).
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
	if err := send.Send(payload); err != nil {
		t.Fatal(err)
	}
	msg, err := recv.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Payload) != len(payload) {
		t.Fatalf("got %d bytes, want %d", len(msg.Payload), len(payload))
	}
	for i := 0; i < len(payload); i += 997 {
		if msg.Payload[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}
