package controller

import (
	"fmt"
	"reflect"

	"copernicus/internal/rng"
	"copernicus/internal/wire"
)

// Durable is implemented by controllers whose in-memory state can be
// captured into a server snapshot and restored after a restart. SaveState
// is called with the project lock held (handlers are not running); the
// returned blob must contain everything needed to resume — including RNG
// state, so the command stream after recovery matches the one an
// uninterrupted run would have produced. RestoreState is called on a fresh
// instance instead of Start. Every bundled controller gets both from the
// campaign it embeds; a controller that implements neither is rebuilt by
// replaying its full WAL history.
type Durable interface {
	SaveState() ([]byte, error)
	RestoreState(data []byte) error
}

// plugin is the science a controller adds to the campaign loop. S is what a
// command works on: a trajectory, a λ window, a ladder rung.
type plugin[S any] interface {
	// fold digests the result of the command that held slot, and may submit
	// follow-on commands.
	fold(ctx Context, slot S, res *wire.CommandResult) error
	// lost reacts to that command failing terminally.
	lost(ctx Context, slot S, cmd wire.CommandSpec, reason string) error
	// round runs when a result or a loss leaves nothing in flight: analyse
	// what the round gathered, then finish the project or submit the next
	// round.
	round(ctx Context) error
}

// ledger is the part of every controller's snapshot the campaign keeps.
type ledger[S any] struct {
	Rand     []byte       // RNG state, captured by SaveState
	InFlight map[string]S // command ID → slot
	NextCmd  int          // commands submitted so far; makes command IDs unique
}

// campaign is the loop under every bundled controller: a seeded RNG, the
// ledger of commands in flight, the rule that a result or failure for a
// command not in the ledger (terminated, or delivered twice) is ignored, the
// round step when the ledger drains, and the snapshot codec. A controller
// embeds one, which gives it CommandFinished, CommandFailed, SaveState and
// RestoreState; what is left to write is Start and the plugin methods.
type campaign[S any] struct {
	led    ledger[S]
	rand   *rng.Source
	name   string    // registry name
	plugin plugin[S] // the embedding controller
	// state points at the controller's resumable fields: ONE struct of
	// exported fields the controller works on directly. It is saved as it is,
	// so it evolves like a wire struct — fields are only appended, and a name
	// is never reused.
	state any
}

func newCampaign[S any](name string, p plugin[S], state any) campaign[S] {
	return campaign[S]{led: ledger[S]{InFlight: make(map[string]S)}, name: name, plugin: p, state: state}
}

// Name implements Controller.
func (c *campaign[S]) Name() string { return c.name }

// seed starts the campaign's RNG; Start calls it once.
func (c *campaign[S]) seed(seed uint64) { c.rand = rng.New(seed) }

// submit qualifies cmd's ID with the project name — command IDs are unique
// per server, and two projects of one kind mint the same ones — encodes
// payload into cmd, queues it, and enters it in the ledger under slot. cmd
// is updated in place, so the caller sees the ID the command runs under.
func (c *campaign[S]) submit(ctx Context, slot S, cmd *wire.CommandSpec, payload any) error {
	var err error
	if cmd.Payload, err = wire.Marshal(payload); err != nil {
		return err
	}
	cmd.ID = ctx.ProjectName() + "/" + cmd.ID
	c.led.NextCmd++
	if err := ctx.Submit(*cmd); err != nil {
		return err
	}
	c.led.InFlight[cmd.ID] = slot
	return nil
}

// settle is the one path a finished or failed command takes. A command that
// is not in the ledger — terminated, or reported twice — is ignored; otherwise
// it leaves the ledger, react digests it, and if that leaves nothing in
// flight the plugin's round step runs.
func (c *campaign[S]) settle(ctx Context, id string, react func(slot S) error) error {
	slot, ok := c.led.InFlight[id]
	if !ok {
		return nil
	}
	delete(c.led.InFlight, id)
	if err := react(slot); err != nil || len(c.led.InFlight) > 0 {
		return err
	}
	return c.plugin.round(ctx)
}

// CommandFinished implements Controller.
func (c *campaign[S]) CommandFinished(ctx Context, res *wire.CommandResult) error {
	return c.settle(ctx, res.CommandID, func(slot S) error { return c.plugin.fold(ctx, slot, res) })
}

// CommandFailed implements Controller. Resubmission after a worker loss is
// the server's retry machinery; what arrives here is terminal.
func (c *campaign[S]) CommandFailed(ctx Context, cmd wire.CommandSpec, reason string) error {
	return c.settle(ctx, cmd.ID, func(slot S) error { return c.plugin.lost(ctx, slot, cmd, reason) })
}

// snapshot returns a struct with the exported fields of the ledger and of the
// controller's state side by side, and for each of its fields the field it
// stands for. The saved layout is that one flat struct; gob would nest an
// embedded ledger under its type name.
func (c *campaign[S]) snapshot() (flat reflect.Value, fields []reflect.Value) {
	var decl []reflect.StructField
	for _, part := range []any{&c.led, c.state} {
		v := reflect.ValueOf(part).Elem()
		for i := 0; i < v.NumField(); i++ {
			decl = append(decl, reflect.StructField{Name: v.Type().Field(i).Name, Type: v.Field(i).Type()})
			fields = append(fields, v.Field(i))
		}
	}
	return reflect.New(reflect.StructOf(decl)).Elem(), fields
}

// SaveState implements Durable.
func (c *campaign[S]) SaveState() ([]byte, error) {
	var err error
	if c.led.Rand, err = c.rand.MarshalBinary(); err != nil {
		return nil, fmt.Errorf("%s controller: rng state: %w", c.name, err)
	}
	flat, fields := c.snapshot()
	for i, f := range fields {
		flat.Field(i).Set(f)
	}
	return wire.Marshal(flat.Addr().Interface())
}

// RestoreState implements Durable: everything resumes exactly where
// SaveState left it.
func (c *campaign[S]) RestoreState(data []byte) error {
	flat, fields := c.snapshot()
	if err := wire.Unmarshal(data, flat.Addr().Interface()); err != nil {
		return fmt.Errorf("%s controller: decoding state: %w", c.name, err)
	}
	for i, f := range fields {
		f.Set(flat.Field(i))
	}
	c.rand = rng.New(0)
	if err := c.rand.UnmarshalBinary(c.led.Rand); err != nil {
		return fmt.Errorf("%s controller: rng state: %w", c.name, err)
	}
	if c.led.InFlight == nil {
		c.led.InFlight = make(map[string]S)
	}
	return nil
}
