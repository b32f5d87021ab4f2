// Package controller implements the plugin layer of §2.1: controllers are
// event handlers that own a project's scientific logic — they react to
// project start and command completion by post-processing data and deciding
// what to run next. All knowledge about how to interpret command output
// lives here, keeping the server framework agnostic of the simulation
// engine, exactly as the paper prescribes.
//
// Three controllers ship with the reproduction: the paper's two bundled
// plugins — Markov-State-Model adaptive sampling (msmctl.go) and
// Bennett-Acceptance-Ratio free energies (barctl.go) — and temperature
// replica exchange (repexctl.go). All three are written on the campaign loop
// of campaign.go, which also carries their save/restore.
package controller

import (
	"fmt"
	"sort"
	"sync"

	"copernicus/internal/obs"
	"copernicus/internal/wire"
)

// Context is the server-provided surface a controller drives a project
// through. Its methods must be called from within controller event handlers
// (Start, CommandFinished, CommandFailed): the server serializes handler
// execution per project, which is what makes them safe. Spawning goroutines
// that call Context methods later breaks that contract.
type Context interface {
	// ProjectName returns the project's name.
	ProjectName() string
	// Submit queues a command. The server fills in Project and Origin, and
	// returns only validation and duplicate-ID errors here: admission (tenant
	// quotas, the queue bound, WAL shed) is decided when the handler returns,
	// for all its commands at once. They are queued together, or none is
	// when the handler returns an error or admission refuses any of them. A
	// refusal fails the project; from Start, a quota or shed refusal
	// withdraws it instead.
	Submit(cmd wire.CommandSpec) error
	// Terminate removes a queued command, or marks a running one so its
	// eventual result is discarded. Reports whether the command was known.
	Terminate(id string) bool
	// SetStatus updates the monitoring note and generation counter shown to
	// clients.
	SetStatus(generation int, note string)
	// Finish completes the project with an encoded result.
	Finish(result []byte)
	// Fail aborts the project.
	Fail(err error)
	// Seed returns the project's deterministic RNG seed.
	Seed() uint64
	// Logf emits a diagnostic line.
	Logf(format string, args ...any)
	// Obs returns the server's observability bundle so controllers can
	// record their own metrics and spans (generation durations, states
	// discovered per round, ...). Never nil.
	Obs() *obs.Obs
}

// Controller is a project plugin. Handlers are invoked serially per project
// (the server guarantees mutual exclusion), so implementations need no
// internal locking for project state.
type Controller interface {
	// Name returns the plugin's registry name.
	Name() string
	// Start is called once when the project is created.
	Start(ctx Context, params []byte) error
	// CommandFinished is called for every successfully completed command.
	CommandFinished(ctx Context, res *wire.CommandResult) error
	// CommandFailed is called when a command fails terminally (exhausted
	// retries). The controller may resubmit, ignore, or fail the project.
	CommandFailed(ctx Context, cmd wire.CommandSpec, reason string) error
}

// FrameSink is the extension through which controllers once took frame
// chunks mid-command. No bundled controller implements it and the server
// never calls it: a command's frames reach its controller in the result
// alone (CommandFinished). The declaration stays for the benchmark harness,
// which still compiles against it.
type FrameSink interface {
	FrameChunk(ctx Context, chunk *wire.FrameChunk) error
}

// Inspectable is an optional extension: controllers that publish a live,
// plugin-specific status blob (beyond the generation counter and note)
// implement it. The server calls Inspect under the same per-project lock as
// the event handlers and copies the blob into ProjectStatus.Detail, where
// clients decode it with plugin knowledge — e.g. the repex controller
// publishes per-pair exchange acceptance statistics this way.
type Inspectable interface {
	// Inspect returns an encoded status blob, or an error to omit it.
	Inspect() ([]byte, error)
}

// Factory creates a fresh controller instance for one project.
type Factory func() Controller

// Registry maps controller names to factories. The zero value is unusable;
// use NewRegistry. Registries are safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register adds a factory under the controller's name. Registering the same
// name twice is a programming error and panics.
func (r *Registry) Register(name string, f Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("controller: duplicate registration of %q", name))
	}
	r.factories[name] = f
}

// New instantiates a controller by name.
func (r *Registry) New(name string) (Controller, error) {
	r.mu.RLock()
	f := r.factories[name]
	r.mu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("controller: unknown controller %q", name)
	}
	return f(), nil
}

// Names returns the registered controller names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefaultRegistry returns a registry with the bundled plugins installed —
// what a stock Copernicus server ships with.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.Register(MSMControllerName, func() Controller { return NewMSMController() })
	r.Register(BARControllerName, func() Controller { return NewBARController() })
	r.Register(RepexControllerName, func() Controller { return NewRepexController() })
	return r
}
