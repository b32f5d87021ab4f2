package main

import (
	"context"
	"encoding/binary"
	"fmt"

	"copernicus/internal/controller"
	"copernicus/internal/wire"
)

const loopControllerName = "bench-loop"

// loopParams is the project parameter blob of the closed-loop controller:
// keep Outstanding commands in flight until Total have completed. The
// payloads are generated from -seed by the benchmark and cycled through.
type loopParams struct {
	Total       int
	Outstanding int
	Type        string
	MinCores    int
	MaxCores    int
	Payloads    [][]byte
}

// loopController is the benchmark's load generator. It is closed loop —
// the next command is submitted only when a result arrives — because that
// is how every Copernicus controller drives the system.
type loopController struct {
	p         loopParams
	verify    func(payload int, output []byte) error
	badOutput func(id string, err error)
	Submitted int
	Finished  int
}

func (c *loopController) Name() string { return loopControllerName }

func (c *loopController) Start(ctx controller.Context, params []byte) error {
	if err := wire.Unmarshal(params, &c.p); err != nil {
		return fmt.Errorf("loop controller: params: %w", err)
	}
	if c.p.Total < 1 || c.p.Outstanding < 1 || len(c.p.Payloads) == 0 {
		return fmt.Errorf("loop controller: need Total, Outstanding and Payloads")
	}
	for c.Submitted < c.p.Outstanding && c.Submitted < c.p.Total {
		if err := c.submit(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (c *loopController) submit(ctx controller.Context) error {
	n := c.Submitted
	c.Submitted++
	return ctx.Submit(wire.CommandSpec{
		ID:       fmt.Sprintf("%s-%07d", ctx.ProjectName(), n),
		Type:     c.p.Type,
		MinCores: c.p.MinCores,
		MaxCores: c.p.MaxCores,
		Payload:  c.p.Payloads[n%len(c.p.Payloads)],
	})
}

func (c *loopController) CommandFinished(ctx controller.Context, res *wire.CommandResult) error {
	var n int
	if _, err := fmt.Sscanf(res.CommandID[len(ctx.ProjectName())+1:], "%d", &n); err != nil {
		return fmt.Errorf("loop controller: command ID %q: %w", res.CommandID, err)
	}
	if err := c.verify(n%len(c.p.Payloads), res.Output); err != nil {
		c.badOutput(res.CommandID, err)
	}
	c.Finished++
	if c.Submitted < c.p.Total {
		return c.submit(ctx)
	}
	if c.Finished == c.p.Total {
		ctx.Finish(nil)
	}
	return nil
}

func (c *loopController) CommandFailed(ctx controller.Context, cmd wire.CommandSpec, reason string) error {
	return fmt.Errorf("loop controller: command %s failed: %s", cmd.ID, reason)
}

// SaveState implements controller.Durable: a durable fabric snapshots
// running projects every SnapshotEvery records.
func (c *loopController) SaveState() ([]byte, error) {
	return wire.Marshal(&loopState{c.p, c.Submitted, c.Finished})
}

type loopState struct {
	P                   loopParams
	Submitted, Finished int
}

func (c *loopController) RestoreState(data []byte) error {
	var st loopState
	if err := wire.Unmarshal(data, &st); err != nil {
		return err
	}
	c.p, c.Submitted, c.Finished = st.P, st.Submitted, st.Finished
	return nil
}

// --- bench-spin engine ---

const (
	spinEngineName = "bench-spin"
	// spinIters is the fixed arithmetic per command, about 0.5 ms on the
	// reference host. A zero-work engine lets both vCPUs fall into halt
	// between commands and the rate then follows wake-up latency, not the
	// control plane (measured ±12 %); this keeps them busy.
	spinIters    = 400_000
	spinPayload  = 512
	spinOutput   = 16 << 10
	spinPayloads = 32
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// spin is the whole computation of one command: a fixed-length xorshift
// chain from the payload's seed, then an output block expanded from the
// chain's end.
func spin(seed uint64) []byte {
	x := seed | 1
	for i := 0; i < spinIters; i++ {
		x = xorshift(x)
	}
	out := make([]byte, spinOutput)
	for i := 0; i < spinOutput; i += 8 {
		x = xorshift(x)
		binary.LittleEndian.PutUint64(out[i:], x)
	}
	return out
}

type spinEngine struct{}

func (spinEngine) Name() string { return spinEngineName }

func (spinEngine) Run(ctx context.Context, spec wire.CommandSpec, cores int, progress func([]byte)) ([]byte, error) {
	if len(spec.Payload) != spinPayload {
		return nil, fmt.Errorf("bench-spin: payload of %d bytes, want %d", len(spec.Payload), spinPayload)
	}
	return spin(binary.LittleEndian.Uint64(spec.Payload)), nil
}

// spinInputs generates the payload set from the seed and, by running each
// once, the first and last output words a correct result must carry.
func spinInputs(seed uint64) (payloads [][]byte, verify func(int, []byte) error) {
	type want struct{ head, tail uint64 }
	wants := make([]want, spinPayloads)
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := range wants {
		p := make([]byte, spinPayload)
		for j := 0; j < spinPayload; j += 8 {
			x = xorshift(x)
			binary.LittleEndian.PutUint64(p[j:], x)
		}
		payloads = append(payloads, p)
		out := spin(binary.LittleEndian.Uint64(p))
		wants[i] = want{binary.LittleEndian.Uint64(out), binary.LittleEndian.Uint64(out[spinOutput-8:])}
	}
	return payloads, func(i int, out []byte) error {
		if len(out) != spinOutput {
			return fmt.Errorf("output of %d bytes, want %d", len(out), spinOutput)
		}
		if h, t := binary.LittleEndian.Uint64(out), binary.LittleEndian.Uint64(out[spinOutput-8:]); h != wants[i].head || t != wants[i].tail {
			return fmt.Errorf("output words %x..%x, want %x..%x", h, t, wants[i].head, wants[i].tail)
		}
		return nil
	}
}
