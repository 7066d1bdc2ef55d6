package log

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedNow() time.Time {
	return time.Date(2017, 11, 13, 9, 30, 0, 0, time.UTC) // SC'17 week
}

func TestTextFormat(t *testing.T) {
	var b strings.Builder
	l := New(&b)
	l.now = fixedNow
	l.Event(Info, "server.group_complete", "group", 7, "folds", 1234)
	got := b.String()
	want := "2017-11-13T09:30:00.000 INFO server.group_complete group=7 folds=1234\n"
	if got != want {
		t.Fatalf("text line = %q, want %q", got, want)
	}
}

func TestJSONFormat(t *testing.T) {
	var b strings.Builder
	l := New(&b)
	l.now = fixedNow
	l.SetJSON(true)
	l.Event(Warn, "server.drop", "reason", "decode", "bytes", 42, "stall", 3*time.Millisecond)
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("not a JSON line: %v\n%s", err, b.String())
	}
	if doc["level"] != "warn" || doc["event"] != "server.drop" ||
		doc["reason"] != "decode" || doc["bytes"] != float64(42) || doc["stall"] != "3ms" {
		t.Fatalf("bad JSON doc: %v", doc)
	}
}

func TestLevelThreshold(t *testing.T) {
	var b strings.Builder
	l := New(&b)
	l.Event(Debug, "hidden")
	l.SetLevel(Error)
	l.Event(Info, "hidden")
	l.Event(Warn, "hidden")
	l.Event(Error, "shown")
	if n := strings.Count(b.String(), "\n"); n != 1 {
		t.Fatalf("emitted %d lines, want 1:\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), "shown") {
		t.Fatalf("error line missing:\n%s", b.String())
	}
	if l.Enabled(Warn) || !l.Enabled(Error) {
		t.Fatal("Enabled disagrees with SetLevel(Error)")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": Debug, "info": Info, "": Info, "Warn": Warn,
		"warning": Warn, "ERROR": Error, "off": Off,
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

func TestOddFieldCount(t *testing.T) {
	var b strings.Builder
	l := New(&b)
	l.Event(Info, "odd", "danglingkey")
	if !strings.Contains(b.String(), "!MISSING_VALUE=danglingkey") {
		t.Fatalf("dangling key not flagged:\n%s", b.String())
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

func TestConcurrentLogging(t *testing.T) {
	var b strings.Builder
	var mu sync.Mutex
	l := New(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	}))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Event(Info, "tick", "worker", i, "j", j)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if n := strings.Count(b.String(), "\n"); n != 400 {
		t.Fatalf("lines = %d, want 400", n)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
