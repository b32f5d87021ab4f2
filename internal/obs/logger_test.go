package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedLogger returns a logger with a pinned clock so lines are deterministic.
func fixedLogger(min Level) (*Logger, *strings.Builder) {
	var b strings.Builder
	l := NewLogger(&b, min)
	l.s.now = func() time.Time { return time.Date(2026, 8, 5, 10, 11, 12, 0, time.UTC) }
	return l, &b
}

func TestLoggerFormat(t *testing.T) {
	l, b := fixedLogger(LevelDebug)
	l.Named("server").With("node", "s0").Info("command requeued", "cmd", "c1", "retry", 1)
	want := `ts=2026-08-05T10:11:12.000Z level=info component=server msg="command requeued" node=s0 cmd=c1 retry=1` + "\n"
	if got := b.String(); got != want {
		t.Errorf("line = %q, want %q", got, want)
	}
}

func TestLoggerQuoting(t *testing.T) {
	l, b := fixedLogger(LevelDebug)
	l.Info("ok", "empty", "", "spacey", "a b", "eq", "k=v", "plain", "x")
	line := b.String()
	for _, frag := range []string{`empty=""`, `spacey="a b"`, `eq="k=v"`, `plain=x`} {
		if !strings.Contains(line, frag) {
			t.Errorf("line %q missing %q", line, frag)
		}
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	l, b := fixedLogger(LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("emitted %d lines, want 2: %q", len(lines), b.String())
	}
	if !strings.Contains(lines[0], "level=warn") || !strings.Contains(lines[1], "level=error") {
		t.Errorf("wrong lines passed the filter: %q", lines)
	}
}

func TestLoggerOddKVs(t *testing.T) {
	l, b := fixedLogger(LevelDebug)
	l.Info("m", "dangling")
	if !strings.Contains(b.String(), "dangling=(MISSING)") {
		t.Errorf("odd trailing key not marked: %q", b.String())
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Info("dropped")
	l.Named("x").With("k", "v").Error("dropped")
	if l.Enabled(LevelError) {
		t.Error("nil logger should report disabled")
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var b safeBuilder
	l := NewLogger(&b, LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child := l.Named("comp").With("g", g)
			for i := 0; i < 200; i++ {
				child.Info("line", "i", i)
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1600 {
		t.Fatalf("emitted %d lines, want 1600", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ts=") || !strings.Contains(line, "component=comp") {
			t.Fatalf("torn or malformed line: %q", line)
		}
	}
}

// safeBuilder is a mutex-guarded strings.Builder; the logger serializes
// writes itself, but the final read in the test races with nothing only if
// the buffer is also safe.
type safeBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, "Warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "off": LevelOff, "": LevelOff,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel should reject unknown names")
	}
}
