package enc

import "testing"

func TestWriterPool(t *testing.T) {
	w := GetWriter(128)
	if w.Len() != 0 {
		t.Fatalf("pooled writer not reset: len %d", w.Len())
	}
	if cap(w.buf) < 128 {
		t.Fatalf("pooled writer capacity %d < 128", cap(w.buf))
	}
	w.F64(3.5)
	w.String("hello")
	payload := append([]byte(nil), w.Bytes()...)
	PutWriter(w)

	w2 := GetWriter(16)
	if w2.Len() != 0 {
		t.Fatalf("reused writer not reset: len %d", w2.Len())
	}
	w2.F64(3.5)
	w2.String("hello")
	if string(w2.Bytes()) != string(payload) {
		t.Fatal("reused writer produced different bytes")
	}
	PutWriter(w2)
	PutWriter(nil) // must not panic

	// Oversized buffers are dropped, not pooled.
	big := GetWriter(maxPooledWriter + 1)
	PutWriter(big)
}
