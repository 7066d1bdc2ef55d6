package log

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFieldsSurviveEitherFormat: an error field carries its text in JSON
// lines, and a text value holding a space, an '=' and a newline stays on
// its event's one line.
func TestFieldsSurviveEitherFormat(t *testing.T) {
	var b strings.Builder
	l := New(&b)
	l.SetJSON(true)
	cause := fmt.Errorf("checkpoint: commit: %w", errors.New("disk full"))
	l.Error("server.checkpoint_failed", "rank", 1, "err", cause, "stall", 3*time.Millisecond)
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("not a JSON line: %v\n%s", err, b.String())
	}
	if doc["msg"] != "server.checkpoint_failed" || doc["err"] != cause.Error() ||
		doc["rank"] != float64(1) || doc["stall"] != float64(3*time.Millisecond) {
		t.Fatalf("JSON record %v; want msg, the error's text, rank 1 and stall in ns", doc)
	}

	b.Reset()
	l.SetJSON(false)
	l.Warn("client.reconnect", "cause", "a b=c\nd", "group", 3)
	out := b.String()
	if n := strings.Count(out, "\n"); n != 1 || !strings.HasSuffix(out, " group=3\n") {
		t.Fatalf("text event spans %d lines, want 1:\n%s", n, out)
	}
}

// TestTextFormat: a text event is one slog line — time, level, the event
// name as msg, then its fields in order, durations in Go's notation.
func TestTextFormat(t *testing.T) {
	var b strings.Builder
	l := New(&b)
	l.Info("server.group_complete", "group", 7, "folds", 1234, "stall", 1500*time.Millisecond)
	line, ok := strings.CutSuffix(b.String(), "\n")
	if !ok || strings.Contains(line, "\n") {
		t.Fatalf("want one line, got %q", b.String())
	}
	ts, rest, _ := strings.Cut(line, " ")
	stamp, found := strings.CutPrefix(ts, "time=")
	if !found {
		t.Fatalf("line does not start with time=: %q", line)
	}
	if _, err := time.Parse(time.RFC3339Nano, stamp); err != nil {
		t.Fatalf("time %q: %v", stamp, err)
	}
	want := "level=INFO msg=server.group_complete group=7 folds=1234 stall=1.5s"
	if rest != want {
		t.Fatalf("text line after time = %q, want %q", rest, want)
	}
}

// TestJSONFormat: a JSON event is one object with time, level and the
// event name as msg beside its fields; durations are integer nanoseconds.
func TestJSONFormat(t *testing.T) {
	var b strings.Builder
	l := New(&b)
	l.SetJSON(true)
	l.Warn("server.drop", "reason", "decode", "bytes", 42, "stall", 3*time.Millisecond)
	if n := strings.Count(b.String(), "\n"); n != 1 {
		t.Fatalf("emitted %d lines, want 1:\n%s", n, b.String())
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("not a JSON line: %v\n%s", err, b.String())
	}
	stamp, _ := doc["time"].(string)
	if _, err := time.Parse(time.RFC3339Nano, stamp); err != nil {
		t.Fatalf("time %q: %v", doc["time"], err)
	}
	if len(doc) != 6 || doc["level"] != "WARN" || doc["msg"] != "server.drop" ||
		doc["reason"] != "decode" || doc["bytes"] != float64(42) ||
		doc["stall"] != float64(3*time.Millisecond) {
		t.Fatalf("bad JSON doc: %v", doc)
	}
}

// TestOddFieldCount: a key with no value, in fields built at run time, is
// not dropped; slog prints it as the value of a !BADKEY field.
func TestOddFieldCount(t *testing.T) {
	var b strings.Builder
	l := New(&b)
	fields := []any{"group", 3, "danglingkey"}
	l.Info("odd", fields...)
	if !strings.HasSuffix(b.String(), " msg=odd group=3 !BADKEY=danglingkey\n") {
		t.Fatalf("dangling key not flagged:\n%s", b.String())
	}
}

func TestLevelThreshold(t *testing.T) {
	var b strings.Builder
	l := New(&b)
	l.Debug("hidden")
	l.SetLevel(Error)
	l.Info("hidden")
	l.Warn("hidden")
	l.Error("shown")
	if n := strings.Count(b.String(), "\n"); n != 1 {
		t.Fatalf("emitted %d lines, want 1:\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), "shown") {
		t.Fatalf("error line missing:\n%s", b.String())
	}
	if l.Enabled(Warn) || !l.Enabled(Error) {
		t.Fatal("Enabled disagrees with SetLevel(Error)")
	}
	l.SetLevel(Off)
	l.Error("hidden")
	if l.Enabled(Error) || strings.Count(b.String(), "\n") != 1 {
		t.Fatalf("Off let an error through:\n%s", b.String())
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": Debug, "info": Info, "": Info, "Warn": Warn,
		"warning": Warn, "ERROR": Error, "off": Off, "none": Off,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted junk")
	}
}

func TestLimiter(t *testing.T) {
	now := time.Unix(0, 0)
	lim := &Limiter{Interval: time.Second, now: func() time.Time { return now }}

	if ok, _ := lim.Allow(1); !ok {
		t.Fatal("first event suppressed")
	}
	for i := 0; i < 5; i++ {
		if ok, _ := lim.Allow(1); ok {
			t.Fatal("event inside interval allowed")
		}
	}
	// An independent key is not limited by key 1's burst.
	if ok, _ := lim.Allow(2); !ok {
		t.Fatal("independent key suppressed")
	}
	now = now.Add(time.Second)
	ok, suppressed := lim.Allow(1)
	if !ok || suppressed != 5 {
		t.Fatalf("after interval: ok=%v suppressed=%d, want true, 5", ok, suppressed)
	}
	// Counter resets after reporting.
	now = now.Add(time.Second)
	if _, s := lim.Allow(1); s != 0 {
		t.Fatalf("suppressed count did not reset: %d", s)
	}
}

func TestLimiterKeyBound(t *testing.T) {
	now := time.Unix(0, 0)
	lim := &Limiter{Interval: time.Hour, now: func() time.Time { return now }}
	for k := uint64(0); k < limiterMaxKeys+10; k++ {
		lim.Allow(k)
	}
	if len(lim.entries) > limiterMaxKeys+1 {
		t.Fatalf("limiter map grew unbounded: %d entries", len(lim.entries))
	}
}

// TestConcurrentLogging logs from several goroutines while the format,
// output and level switch under them: every event stays one whole line.
func TestConcurrentLogging(t *testing.T) {
	var b strings.Builder
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	l := New(w)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Info("tick", "worker", i, "j", j)
			}
		}(i)
	}
	for j := 0; j < 50; j++ {
		l.SetJSON(j%2 == 0)
		l.SetOutput(w)
		l.SetLevel(Info)
		_ = l.Enabled(Debug)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("lines = %d, want 400", len(lines))
	}
	for _, line := range lines {
		if !strings.Contains(line, "tick") || !strings.Contains(line, "worker") {
			t.Fatalf("torn line %q", line)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
