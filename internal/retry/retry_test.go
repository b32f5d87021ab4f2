package retry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"copernicus/internal/obs"
)

func fastPolicy() Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	}
}

func TestSucceedsAfterTransientFailures(t *testing.T) {
	o := obs.New()
	p := fastPolicy()
	p.Obs = o
	calls := 0
	err := p.Do(context.Background(), "announce", func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("link flap")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if got := counterValue(t, o, "copernicus_retry_attempts_total"); got != 2 {
		t.Fatalf("retry_attempts_total = %v, want 2", got)
	}
	if got := counterValue(t, o, "copernicus_retry_giveups_total"); got != 0 {
		t.Fatalf("retry_giveups_total = %v, want 0", got)
	}
}

func TestGivesUpAfterMaxAttempts(t *testing.T) {
	o := obs.New()
	p := fastPolicy()
	p.Obs = o
	calls := 0
	err := p.Do(context.Background(), "result", func(ctx context.Context) error {
		calls++
		return errors.New("dead peer")
	})
	if err == nil {
		t.Fatal("Do: want error")
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	if !strings.Contains(err.Error(), "gave up after 4 attempt(s)") {
		t.Fatalf("error = %v, want give-up wrap", err)
	}
	if !strings.Contains(err.Error(), "dead peer") {
		t.Fatalf("error = %v, want cause preserved", err)
	}
	if got := counterValue(t, o, "copernicus_retry_giveups_total"); got != 1 {
		t.Fatalf("retry_giveups_total = %v, want 1", got)
	}
}

func TestPermanentStopsImmediately(t *testing.T) {
	p := fastPolicy()
	calls := 0
	cause := errors.New("no such project")
	err := p.Do(context.Background(), "status", func(ctx context.Context) error {
		calls++
		return Permanent(cause)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if err != cause {
		t.Fatalf("error = %v, want the unwrapped cause %v", err, cause)
	}
}

func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) must be nil")
	}
}

func TestContextCancelStopsRetrying(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := fastPolicy()
	p.BaseDelay = time.Hour // would hang if the backoff ignored ctx
	calls := 0
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, "heartbeat", func(ctx context.Context) error {
			calls++
			return errors.New("flap")
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "cancelled") {
			t.Fatalf("error = %v, want cancellation wrap", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not return after cancel")
	}
}

func TestPerAttemptDeadline(t *testing.T) {
	p := fastPolicy()
	p.MaxAttempts = 2
	p.PerAttempt = 5 * time.Millisecond
	var sawDeadline bool
	_ = p.Do(context.Background(), "relay", func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); ok {
			sawDeadline = true
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !sawDeadline {
		t.Fatal("attempt context had no deadline")
	}
}

func TestZeroValueDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.MaxAttempts != DefaultMaxAttempts || p.BaseDelay != DefaultBaseDelay ||
		p.MaxDelay != DefaultMaxDelay {
		t.Fatalf("withDefaults = %+v", p)
	}
	if p.Obs == nil {
		t.Fatal("withDefaults left Obs nil")
	}
}

// counterValue sums every series of a counter family in the registry dump.
func counterValue(t *testing.T, o *obs.Obs, name string) float64 {
	t.Helper()
	var buf strings.Builder
	o.Metrics.WriteText(&buf)
	var total float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		var v float64
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err != nil {
			continue
		}
		total += v
	}
	return total
}
