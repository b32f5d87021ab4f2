package controller

import (
	"fmt"
	"math"

	"copernicus/internal/bar"
	"copernicus/internal/engines"
	"copernicus/internal/wire"
)

// BARControllerName is the registry name of the free-energy plugin.
const BARControllerName = "bar"

// BARParams configures a Bennett-Acceptance-Ratio free-energy project: a
// chain of λ windows, each sampled by work-value commands, iterated until
// the total standard error falls below a target — the paper's stop
// criterion "when the standard error estimate of the output result has
// reached a user-specified minimum value".
type BARParams struct {
	Windows            int     // λ windows between 0 and 1
	SamplesPerCommand  int     // work samples per command
	BatchPerWindow     int     // commands submitted per window per round
	TargetStdErr       float64 // stop once total ΔF error (kT) is below this
	MaxRounds          int     // hard cap on sampling rounds
	Displacement       float64 // alchemical displacement (see engines.BARPayload)
	Offset             float64 // exact ΔF(0→1), for validation
	Bootstrap          int     // bootstrap resamples for error bars
	MinCores, MaxCores int
	Seed               uint64
}

// DefaultBARParams returns a small but realistic free-energy project.
func DefaultBARParams() BARParams {
	return BARParams{
		Windows:           5,
		SamplesPerCommand: 500,
		BatchPerWindow:    2,
		TargetStdErr:      0.05,
		MaxRounds:         10,
		Displacement:      2.0,
		Offset:            3.0,
		Bootstrap:         50,
		MinCores:          1,
		MaxCores:          1,
		Seed:              1,
	}
}

func (p *BARParams) validate() error {
	if p.Windows < 1 {
		return fmt.Errorf("bar controller: need at least one window")
	}
	if p.SamplesPerCommand < 2 {
		return fmt.Errorf("bar controller: need at least two samples per command")
	}
	if p.BatchPerWindow < 1 {
		return fmt.Errorf("bar controller: need at least one command per window")
	}
	if p.TargetStdErr <= 0 {
		return fmt.Errorf("bar controller: target standard error must be positive")
	}
	if p.MaxRounds < 1 {
		p.MaxRounds = 1
	}
	if p.MinCores == 0 {
		p.MinCores = 1
	}
	if p.MaxCores < p.MinCores {
		p.MaxCores = p.MinCores
	}
	if p.Bootstrap < 2 {
		p.Bootstrap = 50
	}
	return nil
}

// BARResult is the encoded project result.
type BARResult struct {
	Params  BARParams
	Windows []bar.WindowResult
	Total   bar.Result
	Rounds  int
	// ExactDeltaF is the analytic answer (Offset), recorded for validation.
	ExactDeltaF float64
	SamplesUsed int
}

// barWindow accumulates one window's work values.
type barWindow struct {
	LambdaFrom, LambdaTo float64
	Forward, Reverse     []float64
}

// barState is the BAR controller's resumable state, saved as it is.
type barState struct {
	P       BARParams
	Windows []barWindow
	Round   int
	Samples int
}

// BARController implements the free-energy plugin: a campaign whose slots
// are λ-window indices and whose round is one batch of commands per window.
type BARController struct {
	campaign[int]
	st barState
}

// NewBARController returns an uninitialised BAR controller.
func NewBARController() *BARController {
	c := &BARController{}
	c.campaign = newCampaign[int](BARControllerName, c, &c.st)
	return c
}

// Start implements Controller.
func (c *BARController) Start(ctx Context, params []byte) error {
	p := &c.st.P
	if err := wire.Unmarshal(params, p); err != nil {
		return fmt.Errorf("bar controller: params: %w", err)
	}
	if err := p.validate(); err != nil {
		return err
	}
	c.seed(p.Seed ^ ctx.Seed())
	for w := 0; w < p.Windows; w++ {
		c.st.Windows = append(c.st.Windows, barWindow{
			LambdaFrom: float64(w) / float64(p.Windows),
			LambdaTo:   float64(w+1) / float64(p.Windows),
		})
	}
	c.st.Round = 1
	if err := c.submitRound(ctx); err != nil {
		return err
	}
	ctx.SetStatus(0, fmt.Sprintf("round 1: sampling %d windows", p.Windows))
	return nil
}

// submitRound queues a batch of sampling commands for every window.
func (c *BARController) submitRound(ctx Context) error {
	p := &c.st.P
	for wi, w := range c.st.Windows {
		for b := 0; b < p.BatchPerWindow; b++ {
			cmd := wire.CommandSpec{
				ID:       fmt.Sprintf("bar-w%02d-c%05d", wi, c.led.NextCmd),
				Type:     engines.BARName,
				MinCores: p.MinCores,
				MaxCores: p.MaxCores,
			}
			// The engine's potential carries λ·Offset, so each window's
			// exact contribution is Δλ·Offset and the chain totals Offset.
			err := c.submit(ctx, wi, &cmd, &engines.BARPayload{
				LambdaFrom:   w.LambdaFrom,
				LambdaTo:     w.LambdaTo,
				Displacement: p.Displacement,
				Offset:       p.Offset,
				NSamples:     p.SamplesPerCommand,
				Seed:         c.rand.Uint64(),
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// fold implements plugin: append the command's work values to its window.
func (c *BARController) fold(_ Context, wi int, res *wire.CommandResult) error {
	var out engines.BAROutput
	if err := wire.Unmarshal(res.Output, &out); err != nil {
		return fmt.Errorf("bar controller: output: %w", err)
	}
	w := &c.st.Windows[wi]
	w.Forward = append(w.Forward, out.Forward...)
	w.Reverse = append(w.Reverse, out.Reverse...)
	c.st.Samples += len(out.Forward) + len(out.Reverse)
	return nil
}

// lost implements plugin: BAR commands are cheap and independent, so a
// terminal failure is simply dropped and the round ends with what arrived.
func (c *BARController) lost(ctx Context, wi int, cmd wire.CommandSpec, reason string) error {
	ctx.Logf("bar: command %s for window %d lost (%s)", cmd.ID, wi, reason)
	return nil
}

// round implements plugin: estimate, then stop or sample more.
func (c *BARController) round(ctx Context) error {
	p := &c.st.P
	total, windows, err := c.estimate()
	if err != nil {
		return err
	}
	if total.StdErr <= p.TargetStdErr || c.st.Round >= p.MaxRounds {
		blob, err := wire.Marshal(&BARResult{
			Params:      *p,
			Windows:     windows,
			Total:       total,
			Rounds:      c.st.Round,
			ExactDeltaF: p.Offset,
			SamplesUsed: c.st.Samples,
		})
		if err != nil {
			return err
		}
		ctx.Finish(blob)
		return nil
	}
	c.st.Round++
	ctx.SetStatus(c.st.Round, fmt.Sprintf("round %d: ΔF=%.3f ± %.3f kT (target ±%.3f)",
		c.st.Round, total.DeltaF, total.StdErr, p.TargetStdErr))
	return c.submitRound(ctx)
}

// estimate runs BAR per window and chains the results.
func (c *BARController) estimate() (bar.Result, []bar.WindowResult, error) {
	var windows []bar.WindowResult
	for wi, w := range c.st.Windows {
		// A window with no data yet contributes infinite uncertainty.
		res := bar.Result{StdErr: math.Inf(1)}
		if len(w.Forward) > 0 && len(w.Reverse) > 0 {
			var err error
			if res, err = bar.Estimate(w.Forward, w.Reverse, c.st.P.Bootstrap, c.st.P.Seed+uint64(wi)); err != nil {
				return bar.Result{}, nil, err
			}
		}
		windows = append(windows, bar.WindowResult{LambdaFrom: w.LambdaFrom, LambdaTo: w.LambdaTo, Result: res})
	}
	return bar.Chain(windows), windows, nil
}
