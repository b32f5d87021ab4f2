// Package retry is the one retry/backoff policy shared by every overlay
// request path in the reproduction: worker announce/result/heartbeat
// uploads, server relay and recovery reports, and client submissions all
// run through Policy.Do instead of ad-hoc single-shot requests.
//
// The policy is capped exponential backoff: the delay doubles from BaseDelay
// up to MaxDelay, with no jitter, so a retry schedule is the same on every
// run. Every retry and give-up is counted into the shared obs registry,
// which is how the chaos harness proves the fault paths were actually
// exercised.
package retry

import (
	"context"
	"errors"
	"fmt"
	"time"

	"copernicus/internal/obs"
)

// Default policy knobs, chosen so that a transient link flap (the common
// case on the paper's loosely-coupled resources) is ridden out in well under
// a heartbeat interval while a genuinely dead peer costs only ~1 s of
// backoff before the caller's own recovery (re-home, spool) takes over.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 50 * time.Millisecond
	DefaultMaxDelay    = 2 * time.Second
)

// Policy is a capped exponential backoff policy: each delay is twice the
// last, up to MaxDelay. The zero value selects the defaults above;
// MaxAttempts 1 disables retries entirely.
type Policy struct {
	// MaxAttempts is the total number of tries, first attempt included
	// (default 4; 1 = single shot, negative values are treated as 1).
	MaxAttempts int
	// BaseDelay is the sleep before the second attempt (default 50 ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 2 s).
	MaxDelay time.Duration
	// PerAttempt bounds each individual attempt with a context deadline;
	// zero leaves the caller's context in charge.
	PerAttempt time.Duration
	// Obs receives retry_attempts/giveups counters; nil records silently.
	Obs *obs.Obs
	// Scope labels this policy's metric series (typically the node ID).
	Scope string
}

// withDefaults returns p with zero fields replaced by the defaults.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.Obs == nil {
		p.Obs = obs.New()
	}
	return p
}

// permanentError marks an error that retrying cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately and returns err unmodified —
// used for application-level failures (the request WAS delivered; the
// answer will not change) as opposed to transport failures.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do runs fn until it succeeds, returns a Permanent error, exhausts the
// attempt count, or ctx is cancelled. Each attempt receives a child context
// bounded by PerAttempt (when set). The returned error is the last
// attempt's error, wrapped with the give-up reason.
func (p Policy) Do(ctx context.Context, op string, fn func(ctx context.Context) error) error {
	p = p.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	labels := obs.L("op", op, "scope", p.Scope)
	retries := p.Obs.Metrics.Counter("copernicus_retry_attempts_total",
		"Retried requests (attempts after a failed first try), by operation.", labels)
	giveups := p.Obs.Metrics.Counter("copernicus_retry_giveups_total",
		"Requests abandoned after exhausting the retry policy, by operation.", labels)

	delay := p.BaseDelay
	for attempt := 1; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(nil)
		if p.PerAttempt > 0 {
			actx, cancel = context.WithTimeout(ctx, p.PerAttempt)
		}
		err := fn(actx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("retry: %s cancelled after %d attempt(s): %w", op, attempt, err)
		}
		if attempt >= p.MaxAttempts {
			giveups.Inc()
			return fmt.Errorf("retry: %s gave up after %d attempt(s): %w", op, attempt, err)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("retry: %s cancelled during backoff after %d attempt(s): %w", op, attempt, err)
		case <-time.After(delay):
		}
		retries.Inc()
		delay = min(2*delay, p.MaxDelay)
	}
}
