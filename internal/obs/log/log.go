// Package log is the framework's leveled structured logger. Call sites emit
// an event name plus key/value fields; the output is either human-readable
// text (default) or JSON lines (-log-json), and a level threshold
// (-log-level) silences the chatty tiers.
//
// It replaces the scattered stdlib log.Printf calls so study lifecycle
// events — group connect/complete, checkpoint commit/skip, malformed-frame
// drop — are machine-parseable and individually rate-limitable. The package
// is intended to be imported with an alias (olog) to avoid shadowing the
// stdlib.
package log

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities.
type Level int32

// Levels, least to most severe. Off disables everything.
const (
	Debug Level = iota
	Info
	Warn
	Error
	Off
)

func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return "off"
}

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

// Logger writes leveled events. The zero value is unusable; use New or the
// package-level Default.
type Logger struct {
	level atomic.Int32
	json  atomic.Bool

	mu  sync.Mutex
	out io.Writer
	now func() time.Time // test hook
}

// New returns a text-format logger at Info writing to w.
func New(w io.Writer) *Logger {
	l := &Logger{out: w, now: time.Now}
	l.level.Store(int32(Info))
	return l
}

// Default is the process-wide logger (stderr, text, Info).
var Default = New(os.Stderr)

// SetLevel sets the minimum severity that is emitted.
func (l *Logger) SetLevel(v Level) { l.level.Store(int32(v)) }

// SetJSON switches between JSON-lines (true) and text output.
func (l *Logger) SetJSON(v bool) { l.json.Store(v) }

// SetOutput redirects the logger (tests, log files).
func (l *Logger) SetOutput(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out = w
}

// Enabled reports whether events at v would be emitted — guard expensive
// field construction with it.
func (l *Logger) Enabled(v Level) bool { return v >= Level(l.level.Load()) }

// Event emits one event: a short dotted name ("server.group_complete") and
// alternating key, value field pairs. Values are formatted with %v in text
// mode and JSON-marshaled in JSON mode (falling back to the %v string for
// unmarshalable values).
func (l *Logger) Event(v Level, event string, kv ...any) {
	if !l.Enabled(v) {
		return
	}
	ts := l.now()
	var b strings.Builder
	if l.json.Load() {
		writeJSONLine(&b, ts, v, event, kv)
	} else {
		writeTextLine(&b, ts, v, event, kv)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.out, b.String())
}

// Package-level helpers on Default.

// Debugw emits a Debug event on Default.
func Debugw(event string, kv ...any) { Default.Event(Debug, event, kv...) }

// Infow emits an Info event on Default.
func Infow(event string, kv ...any) { Default.Event(Info, event, kv...) }

// Warnw emits a Warn event on Default.
func Warnw(event string, kv ...any) { Default.Event(Warn, event, kv...) }

// Errorw emits an Error event on Default.
func Errorw(event string, kv ...any) { Default.Event(Error, event, kv...) }

func writeTextLine(b *strings.Builder, ts time.Time, v Level, event string, kv []any) {
	b.WriteString(ts.Format("2006-01-02T15:04:05.000"))
	b.WriteByte(' ')
	b.WriteString(strings.ToUpper(v.String()))
	b.WriteByte(' ')
	b.WriteString(event)
	for i := 0; i+1 < len(kv); i += 2 {
		fmt.Fprintf(b, " %v=%v", kv[i], kv[i+1])
	}
	if len(kv)%2 == 1 {
		fmt.Fprintf(b, " !MISSING_VALUE=%v", kv[len(kv)-1])
	}
	b.WriteByte('\n')
}

func writeJSONLine(b *strings.Builder, ts time.Time, v Level, event string, kv []any) {
	b.WriteString(`{"ts":`)
	b.WriteString(fmt.Sprintf("%q", ts.Format(time.RFC3339Nano)))
	b.WriteString(`,"level":`)
	b.WriteString(fmt.Sprintf("%q", v.String()))
	b.WriteString(`,"event":`)
	b.WriteString(jsonValue(event))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(',')
		b.WriteString(jsonValue(fmt.Sprintf("%v", kv[i])))
		b.WriteByte(':')
		b.WriteString(jsonValue(kv[i+1]))
	}
	if len(kv)%2 == 1 {
		b.WriteString(`,"!MISSING_VALUE":`)
		b.WriteString(jsonValue(kv[len(kv)-1]))
	}
	b.WriteString("}\n")
}

func jsonValue(v any) string {
	if d, ok := v.(time.Duration); ok {
		v = d.String()
	}
	out, err := json.Marshal(v)
	if err != nil {
		out, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	return string(out)
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
	nowFn := r.now
	if nowFn == nil {
		nowFn = time.Now
	}
	now := nowFn()
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
