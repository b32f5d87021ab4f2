package des

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/server"
	"copernicus/internal/wire"
)

// TestDESRefillRidesTheResult: a 2-core fleet worker runs a burst of six
// 5 s commands. Each next command starts at the instant the one before it
// on that core ends, on its result's refill: the worker announces once, at
// the start, and again only once it holds nothing, at 15 s. No command is
// orphaned, here or on the trimmed tenant scenario, which is backlogged and
// kill-free: an announce while commands run would orphan them.
func TestDESRefillRidesTheResult(t *testing.T) {
	o := obs.New()
	p := &probe{run: 5, starts: make(map[string][]float64), ends: make(map[string]float64)}
	reg := controller.NewRegistry()
	reg.Register(burstName, func() controller.Controller { return burstController{} })
	p.f = newFleet(server.Config{Obs: o}, server.Hooks{Origin: "des"}, reg, 1, 2, "sim", p)
	p.f.at(0, func() {
		if _, err := p.f.core.Submit(&wire.ProjectSubmit{Name: "p", Controller: burstName, Params: []byte("6")}); err != nil {
			t.Error(err)
		}
	})
	var announces []int // before the last commands end, and after
	p.f.at(14.9, func() { announces = append(announces, p.f.announces) })
	p.f.at(15.1, func() { announces = append(announces, p.f.announces) })
	p.f.run(15.1, func() bool { return false })
	for k, want := range []float64{0, 0, 5, 5, 10, 10} {
		if got := p.starts["p/"+strconv.Itoa(k)]; !slices.Equal(got, []float64{want}) {
			t.Errorf("p/%d started at %v, want [%v]", k, got, want)
		}
	}
	if !slices.Equal(announces, []int{1, 2}) {
		t.Errorf("announces by 14.9 s and 15.1 s: %v, want [1 2]", announces)
	}

	tp := DefaultTenantParams()
	tp.Tenants, tp.HorizonSeconds, tp.Obs = 300, 600, obs.New()
	if _, err := SimulateTenants(tp); err != nil {
		t.Fatal(err)
	}
	for _, run := range []*obs.Obs{o, tp.Obs} {
		var b strings.Builder
		run.Metrics.WriteText(&b)
		const orphaned = `copernicus_commands_orphaned_total{node="des"} `
		if i := strings.Index(b.String(), orphaned); i < 0 || b.String()[i+len(orphaned)] != '0' {
			t.Errorf("%s is not 0", orphaned)
		}
	}
}
