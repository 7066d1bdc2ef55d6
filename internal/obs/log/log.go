// Package log is the framework's process-wide structured logger on log/slog:
// an event name as the message plus key/value fields, written as slog text
// lines (default) or JSON lines (-log-json) above a level threshold
// (-log-level). It adds what slog lacks: an Off level, the flags' level
// names, a logger whose level, format and output can change while other
// goroutines log, and a per-key rate Limiter. Import it as olog, beside the
// stdlib log the binaries print their console lines with.
package log

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities.
type Level = slog.Level

// Levels, least to most severe. Off disables everything.
const (
	Debug = slog.LevelDebug
	Info  = slog.LevelInfo
	Warn  = slog.LevelWarn
	Error = slog.LevelError
	Off   = slog.LevelError + 4
)

// ParseLevel reads a level name ("debug", "info", "warn", "error", "off").
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return Debug, nil
	case "info", "":
		return Info, nil
	case "warn", "warning":
		return Warn, nil
	case "error":
		return Error, nil
	case "off", "none":
		return Off, nil
	}
	return Info, fmt.Errorf("unknown log level %q", s)
}

// Logger is a *slog.Logger whose records go to a slog.TextHandler or a
// slog.JSONHandler over one slog.LevelVar. SetLevel, SetJSON, SetOutput and
// Enabled are safe to call while other goroutines log.
type Logger struct {
	*slog.Logger
	level slog.LevelVar
	cur   atomic.Pointer[slog.Handler] // the handler records go to now

	mu   sync.Mutex // serializes handler swaps
	out  io.Writer
	json bool
}

// New returns a text-format logger at Info writing to w.
func New(w io.Writer) *Logger {
	l := &Logger{out: w}
	l.Logger = slog.New(swapHandler{l})
	l.swap()
	return l
}

// Default is the process-wide logger (stderr, text, Info). It is not
// installed as slog's default: the binaries' console lines go through the
// stdlib log unfiltered.
var Default = New(os.Stderr)

// SetLevel sets the minimum severity that is emitted.
func (l *Logger) SetLevel(v Level) { l.level.Set(v) }

// SetJSON switches between JSON lines (true) and text output.
func (l *Logger) SetJSON(v bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.json = v
	l.swap()
}

// SetOutput redirects the logger (tests, log files).
func (l *Logger) SetOutput(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out = w
	l.swap()
}

// swap installs a handler for the current format and output; l.mu is held
// or l is not yet shared.
func (l *Logger) swap() {
	opts := &slog.HandlerOptions{Level: &l.level}
	var h slog.Handler = slog.NewTextHandler(l.out, opts)
	if l.json {
		h = slog.NewJSONHandler(l.out, opts)
	}
	l.cur.Store(&h)
}

// Enabled reports whether events at v would be emitted — guard expensive
// field construction with it. It costs one atomic load.
func (l *Logger) Enabled(v Level) bool { return v >= l.level.Level() }

// swapHandler is the handler of a Logger's slog.Logger: it filters on the
// level itself and hands each record to the handler the Logger holds now. A
// logger derived through With or WithGroup keeps the format and output
// current at that call.
type swapHandler struct{ l *Logger }

func (h swapHandler) Enabled(_ context.Context, v slog.Level) bool { return h.l.Enabled(v) }

func (h swapHandler) Handle(ctx context.Context, r slog.Record) error {
	return (*h.l.cur.Load()).Handle(ctx, r)
}

func (h swapHandler) WithAttrs(as []slog.Attr) slog.Handler {
	return (*h.l.cur.Load()).WithAttrs(as)
}

func (h swapHandler) WithGroup(name string) slog.Handler {
	return (*h.l.cur.Load()).WithGroup(name)
}

// Limiter rate-limits per-key log emission: Allow returns true at most once
// per Interval for each key, along with how many calls for that key were
// suppressed since the last allowed one. Keys are caller-chosen uint64s
// (group IDs, a sentinel for unattributable events). The internal map is
// reset whenever it exceeds a bound, so an attacker churning keys cannot
// grow it without limit.
type Limiter struct {
	// Interval is the minimum spacing between allowed events per key.
	Interval time.Duration

	mu      sync.Mutex
	entries map[uint64]*limitEntry
	now     func() time.Time // test hook
}

type limitEntry struct {
	last       time.Time
	suppressed int64
}

// limiterMaxKeys bounds the tracked-key map; past it the map resets (old
// keys then log once more, which is harmless).
const limiterMaxKeys = 4096

// Allow reports whether an event for key should be logged now, and if so
// how many events were suppressed since the previous allowed one.
func (r *Limiter) Allow(key uint64) (ok bool, suppressed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	if r.now != nil {
		now = r.now()
	}
	if r.entries == nil || len(r.entries) > limiterMaxKeys {
		r.entries = make(map[uint64]*limitEntry)
	}
	e := r.entries[key]
	if e == nil {
		r.entries[key] = &limitEntry{last: now}
		return true, 0
	}
	if now.Sub(e.last) >= r.Interval {
		n := e.suppressed
		e.last = now
		e.suppressed = 0
		return true, n
	}
	e.suppressed++
	return false, 0
}

// Log emits event at level v on Default when Default is at v or below and
// Allow passes key, with the suppressed count appended as "suppressed" when
// it is nonzero.
func (r *Limiter) Log(key uint64, v Level, event string, args ...any) {
	if !Default.Enabled(v) {
		return
	}
	if ok, suppressed := r.Allow(key); ok {
		if suppressed > 0 {
			args = append(args, "suppressed", suppressed)
		}
		Default.Log(context.Background(), v, event, args...)
	}
}
