package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level is a log severity.
type Level int32

// Severities, in increasing order. LevelOff disables all output.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case LevelOff:
		return "off"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel converts a level name ("debug", "info", "warn", "error",
// "off") to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "silent", "none", "":
		return LevelOff, nil
	default:
		return LevelOff, fmt.Errorf("obs: unknown log level %q", s)
	}
}

// sink is the shared output/level state behind a Logger and its children.
type sink struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
	now func() time.Time // overridable for deterministic tests
}

// Logger emits leveled key=value lines tagged with a component name:
//
//	ts=2026-08-05T10:11:12.000Z level=info component=server msg="command requeued" cmd=c1 retry=1
//
// Derive component- or field-bound children with Named and With; all
// children share the parent's writer and level. A nil *Logger is safe to
// call and discards everything.
type Logger struct {
	s         *sink
	component string
	bound     string // pre-rendered " k=v" pairs from With
}

// NewLogger writes lines at or above min to w. A nil w discards output.
func NewLogger(w io.Writer, min Level) *Logger {
	if w == nil {
		w = io.Discard
	}
	return &Logger{s: &sink{w: w, min: min, now: time.Now}}
}

// Named returns a child logger tagged with the component name.
func (l *Logger) Named(component string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s, component: component, bound: l.bound}
}

// With returns a child logger with alternating key/value pairs appended to
// every line it emits.
func (l *Logger) With(kvs ...any) *Logger {
	if l == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString(l.bound)
	appendKVs(&b, kvs)
	return &Logger{s: l.s, component: l.component, bound: b.String()}
}

// Enabled reports whether lines at level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.s.min && level < LevelOff
}

// Log emits one line at the given level with alternating key/value pairs.
func (l *Logger) Log(level Level, msg string, kvs ...any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.Grow(96 + len(msg))
	b.WriteString("ts=")
	b.WriteString(l.s.now().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	if l.component != "" {
		b.WriteString(" component=")
		writeValue(&b, l.component)
	}
	b.WriteString(" msg=")
	writeValue(&b, msg)
	b.WriteString(l.bound)
	appendKVs(&b, kvs)
	b.WriteByte('\n')
	l.s.mu.Lock()
	_, _ = io.WriteString(l.s.w, b.String())
	l.s.mu.Unlock()
}

// Debug emits a debug line.
func (l *Logger) Debug(msg string, kvs ...any) { l.Log(LevelDebug, msg, kvs...) }

// Info emits an info line.
func (l *Logger) Info(msg string, kvs ...any) { l.Log(LevelInfo, msg, kvs...) }

// Warn emits a warning line.
func (l *Logger) Warn(msg string, kvs ...any) { l.Log(LevelWarn, msg, kvs...) }

// Error emits an error line.
func (l *Logger) Error(msg string, kvs ...any) { l.Log(LevelError, msg, kvs...) }

// appendKVs renders alternating key/value pairs; an odd trailing key is
// emitted with the value "(MISSING)".
func appendKVs(b *strings.Builder, kvs []any) {
	for i := 0; i < len(kvs); i += 2 {
		key, ok := kvs[i].(string)
		if !ok {
			key = fmt.Sprint(kvs[i])
		}
		b.WriteByte(' ')
		b.WriteString(key)
		b.WriteByte('=')
		if i+1 < len(kvs) {
			writeValue(b, fmt.Sprint(kvs[i+1]))
		} else {
			b.WriteString("(MISSING)")
		}
	}
}

// writeValue quotes values that would break key=value parsing.
func writeValue(b *strings.Builder, v string) {
	if v == "" || strings.ContainsAny(v, " \t\n\"=") {
		b.WriteString(strconv.Quote(v))
		return
	}
	b.WriteString(v)
}
