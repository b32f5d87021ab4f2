// Package client is the one project-facing API surface of the overlay:
// submitting projects, querying status, and waiting for completion. The
// in-process Fabric, the cpcctl CLI, and any remote tool all speak through
// the same Client, so retry behaviour, idempotent resubmission and status
// polling are implemented exactly once.
package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"copernicus/internal/overlay"
	"copernicus/internal/retry"
	"copernicus/internal/wire"
)

// Config tunes a Client.
type Config struct {
	// Server is the node ID submissions are addressed to; status queries go
	// anycast so any server in the overlay can answer for the holder.
	Server string
	// Poll is the Wait status-poll interval (default 50 ms — in-process
	// fabrics finish projects in seconds; remote callers may want more).
	Poll time.Duration
}

// Client issues project operations against an overlay it is connected to.
type Client struct {
	node *overlay.Node
	cfg  Config
	rpol retry.Policy // every request: package-default backoff, 5 s per attempt

	mu     sync.Mutex
	server string // current submission target; follows failover promotions
}

// New binds a client to an overlay node that is (or will be) connected to
// at least one server.
func New(node *overlay.Node, cfg Config) *Client {
	if cfg.Poll <= 0 {
		cfg.Poll = 50 * time.Millisecond
	}
	c := &Client{node: node, cfg: cfg, server: cfg.Server,
		rpol: retry.Policy{PerAttempt: 5 * time.Second, Obs: node.Obs, Scope: node.ID()}}
	// Status and Wait already find a promoted standby through anycast; the
	// promotion announcement additionally retargets submissions, so a client
	// peered with the new primary keeps working without operator action.
	node.Handle(wire.MsgPromoted, func(from string, payload []byte) ([]byte, error) {
		var ann wire.Promoted
		if err := wire.Unmarshal(payload, &ann); err != nil {
			return nil, err
		}
		if ann.NodeID != "" {
			c.mu.Lock()
			c.server = ann.NodeID
			c.mu.Unlock()
		}
		return []byte{}, nil
	})
	return c
}

// Server returns the node ID submissions are currently addressed to. It
// starts as Config.Server and follows failover promotion announcements.
func (c *Client) Server() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.server
}

// Typed admission outcomes, re-exported so callers can classify rejections
// without importing the wire package. Quota violations are terminal: the
// same submission fails until the tenant's quota or usage changes.
// Admission sheds are retryable: the server (or its WAL) is overloaded and
// backing off is the correct response — Submit does so automatically under
// its retry policy.
var (
	ErrQuotaExceeded = wire.ErrQuotaExceeded
	ErrAdmissionShed = wire.ErrAdmissionShed
)

// SubmitRequest describes one project submission.
type SubmitRequest struct {
	// Name is the unique project name; Controller the plugin that drives it.
	Name       string
	Controller string
	// Params is the controller-specific configuration blob.
	Params []byte
	// Tenant bills the project's commands to this fair-share account
	// ("" = the default tenant).
	Tenant string
	// Priority is the base priority commands inherit when the controller
	// does not set one.
	Priority int
	// Deadline, when non-zero, tells the server to reject the submission
	// (with ErrAdmissionShed) if it is admitted after this instant — the
	// client has given up by then.
	Deadline time.Time
}

// SubmitOption mutates a SubmitRequest; use with Submit for call sites that
// prefer options over struct literals.
type SubmitOption func(*SubmitRequest)

// WithTenant bills the project to the given tenant account.
func WithTenant(tenant string) SubmitOption {
	return func(r *SubmitRequest) { r.Tenant = tenant }
}

// Submit creates a project and returns the server's admission receipt.
// Admission rejections carry typed retry classes: errors.Is(err,
// ErrQuotaExceeded) is terminal, errors.Is(err, ErrAdmissionShed) means the
// server shed load — Submit already retried under its policy, so a caller
// seeing it should back off longer before resubmitting.
//
// Submission is not naturally idempotent (a project name can only be
// created once), so when a retried attempt learns the project "already
// exists", that means an earlier attempt succeeded but its reply was lost —
// Submit reports success with a synthesized receipt.
func (c *Client) Submit(ctx context.Context, req SubmitRequest, opts ...SubmitOption) (wire.SubmitReceipt, error) {
	for _, opt := range opts {
		opt(&req)
	}
	sub := wire.ProjectSubmit{
		Name:       req.Name,
		Controller: req.Controller,
		Params:     req.Params,
		Tenant:     req.Tenant,
		Priority:   req.Priority,
	}
	if !req.Deadline.IsZero() {
		sub.DeadlineUnixNano = req.Deadline.UnixNano()
	}
	payload, err := wire.Marshal(&sub)
	if err != nil {
		return wire.SubmitReceipt{}, err
	}
	var receipt wire.SubmitReceipt
	attempt := 0
	err = c.rpol.Do(ctx, "submit", func(ctx context.Context) error {
		attempt++
		reply, err := c.node.Request(ctx, c.Server(), wire.MsgSubmit, payload)
		var remote *overlay.RemoteError
		if errors.As(err, &remote) {
			if attempt > 1 && strings.Contains(remote.Msg, "already exists") {
				// The lost first attempt landed.
				receipt = wire.SubmitReceipt{Project: req.Name, Tenant: req.Tenant, Server: c.Server()}
				return nil
			}
			if errors.Is(err, wire.ErrAdmissionShed) {
				return err // retryable: back off and try again
			}
			return retry.Permanent(err)
		}
		if err != nil {
			return err
		}
		return wire.Unmarshal(reply, &receipt)
	})
	return receipt, err
}

// --- tenant administration ---

// Tenants lists every tenant account the submission server's scheduler
// knows about (weights, quotas, usage).
func (c *Client) Tenants(ctx context.Context) ([]wire.TenantStatus, error) {
	payload, err := wire.Marshal(&wire.TenantListRequest{})
	if err != nil {
		return nil, err
	}
	var list wire.TenantList
	err = c.request(ctx, "tenant_list", wire.MsgTenantList, payload, &list)
	return list.Tenants, err
}

// TenantQuota reports one tenant's weight, quotas and usage.
func (c *Client) TenantQuota(ctx context.Context, tenant string) (wire.TenantStatus, error) {
	payload, err := wire.Marshal(&wire.TenantQuotaRequest{Tenant: tenant})
	if err != nil {
		return wire.TenantStatus{}, err
	}
	var st wire.TenantStatus
	err = c.request(ctx, "tenant_quota_get", wire.MsgTenantQuotaGet, payload, &st)
	return st, err
}

// SetTenantQuota applies a weight/quota update (wire.TenantQuotaUpdate
// semantics: Weight <= 0 keeps, negative quota keeps, zero clears) and
// returns the resulting status.
func (c *Client) SetTenantQuota(ctx context.Context, upd wire.TenantQuotaUpdate) (wire.TenantStatus, error) {
	payload, err := wire.Marshal(&upd)
	if err != nil {
		return wire.TenantStatus{}, err
	}
	var st wire.TenantStatus
	err = c.request(ctx, "tenant_quota_set", wire.MsgTenantQuotaSet, payload, &st)
	return st, err
}

// request runs one retried unicast request against the submission server
// and decodes the reply. Remote handler errors are permanent (the server
// answered; asking again changes nothing).
func (c *Client) request(ctx context.Context, op string, t wire.MsgType, payload []byte, out any) error {
	return c.rpol.Do(ctx, op, func(ctx context.Context) error {
		reply, err := c.node.Request(ctx, c.Server(), t, payload)
		if err != nil {
			var remote *overlay.RemoteError
			if errors.As(err, &remote) {
				return retry.Permanent(err)
			}
			return err
		}
		return wire.Unmarshal(reply, out)
	})
}

// Status queries the project's current state; any server holding it may
// answer (anycast), so it works through relays and after a re-home.
func (c *Client) Status(ctx context.Context, name string) (wire.ProjectStatus, error) {
	payload, err := wire.Marshal(&wire.ProjectStatusRequest{Name: name})
	if err != nil {
		return wire.ProjectStatus{}, err
	}
	var st wire.ProjectStatus
	err = c.rpol.Do(ctx, "status", func(ctx context.Context) error {
		reply, err := c.node.Request(ctx, "", wire.MsgStatus, payload)
		if err != nil {
			var remote *overlay.RemoteError
			if errors.As(err, &remote) || errors.Is(err, context.DeadlineExceeded) {
				// Answered with an error, or no server knows the project —
				// retrying the same question gets the same silence.
				return retry.Permanent(err)
			}
			return err
		}
		return wire.Unmarshal(reply, &st)
	})
	return st, err
}

// Wait polls Status until the project leaves the "running" state or ctx is
// done. Transient status failures (a dropped link mid-poll) do not abort
// the wait; the last error is reported if ctx expires first.
func (c *Client) Wait(ctx context.Context, name string) (wire.ProjectStatus, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var lastErr error
	for {
		st, err := c.Status(ctx, name)
		if err == nil && st.State != "" && st.State != "running" {
			return st, nil
		}
		if err != nil {
			lastErr = err
		}
		select {
		case <-ctx.Done():
			if lastErr == nil {
				lastErr = ctx.Err()
			}
			return wire.ProjectStatus{}, fmt.Errorf("client: waiting for project %q: %w", name, lastErr)
		case <-time.After(c.cfg.Poll):
		}
	}
}
