package des

import (
	"strings"
	"testing"

	"copernicus/internal/obs"
)

// TestMultiTenantScenario is the acceptance run for the multi-tenant
// control plane: 2000 background tenants plus saturated heavy hitters in
// four weight classes drive the real fair-share queue for a simulated
// hour with a slow-fsync WAL fault window at mid-run.
func TestMultiTenantScenario(t *testing.T) {
	s, err := runTenants(DefaultTenantParams())
	if err != nil {
		t.Fatal(err)
	}
	p, res := s.p, s.res
	t.Logf("submitted=%d dispatched=%d completed=%d shed=%d quotaReject=%d util=%.2f",
		res.Submitted, res.Dispatched, res.Completed, res.Shed, res.QuotaReject, res.Utilization)
	t.Logf("shareErr=%.3f maxWait=%.0fs maxGap=%.0fs starved=%d",
		res.MaxShareError, res.MaxWaitSeconds, res.MaxGapSeconds, len(res.Starved))
	t.Logf("fault: peakPressure=%.2f sheds=%d inflight start=%d min=%d end=%d after-fault dispatches=%d",
		res.PeakPressure, res.FaultSheds, res.InflightAtFaultStart,
		res.MinInflightDuringFault, res.InflightAtFaultEnd, res.DispatchesAfterFault)

	// The fleet must actually be busy for the fairness claims to mean
	// anything: heavy hitters keep it saturated outside the fault window.
	if res.Utilization < 0.6 {
		t.Errorf("utilization = %.2f, want >= 0.6", res.Utilization)
	}

	// Acceptance: per-tenant core time proportional to weights within 10%
	// across the saturated tenants.
	if res.MaxShareError > 0.10 {
		for _, h := range res.Heavy {
			t.Logf("  %s w=%g coreSeconds=%.0f share=%.1f",
				h.ID, h.Weight, h.CoreSeconds, h.CoreSeconds/h.Weight)
		}
		t.Errorf("weighted share error = %.3f, want <= 0.10", res.MaxShareError)
	}
	for _, h := range res.Heavy {
		if h.Dispatched == 0 {
			t.Errorf("heavy hitter %s never dispatched", h.ID)
		}
	}

	// Acceptance: zero starved tenants — every backlogged tenant keeps
	// being served within the gap SLO, fault window included.
	if len(res.Starved) != 0 {
		t.Errorf("starved tenants (gap > %.0fs): %v", p.GapSLOSeconds, res.Starved)
	}

	// Acceptance: the slow-fsync fault window is visible and bounded. WAL
	// pressure must cross the shed threshold, admission must shed, and the
	// in-flight window must drain rather than pile up.
	if res.PeakPressure < 0.95 {
		t.Errorf("peak pressure = %.2f, want >= 0.95 during the fault window", res.PeakPressure)
	}
	if res.FaultSheds == 0 {
		t.Error("no submissions shed during the WAL fault window")
	}
	if res.InflightAtFaultEnd >= res.InflightAtFaultStart {
		t.Errorf("in-flight did not drain under backpressure: start=%d end=%d",
			res.InflightAtFaultStart, res.InflightAtFaultEnd)
	}
	if res.MinInflightDuringFault > res.Capacity/4 {
		t.Errorf("in-flight window stayed at %d cores during the fault, want <= %d",
			res.MinInflightDuringFault, res.Capacity/4)
	}
	// And the cluster recovers: pressure decays and dispatching resumes.
	if res.FinalPressure > 0.5 {
		t.Errorf("final pressure = %.2f, want < 0.5 after the fault clears", res.FinalPressure)
	}
	if res.DispatchesAfterFault == 0 {
		t.Error("no dispatches after the fault window cleared")
	}

	// Quota enforcement: the capped background tenants' oversized bursts
	// hit the terminal rejection path.
	if res.QuotaReject == 0 {
		t.Error("no terminal quota rejections despite capped tenants")
	}

	// Each tenant's refusals are on its account, as the scenario saw them.
	for _, st := range s.stats {
		ts, ok := s.f.q.Tenant(st.ID)
		if st.Submitted+st.Shed+st.QuotaReject > 0 && !ok {
			t.Fatalf("tenant %s submitted and has no account", st.ID)
		}
		if ts.Shed != st.Shed || ts.QuotaRejects != st.QuotaReject {
			t.Errorf("tenant %s's account shows %d shed and %d quota rejects, the scenario saw %d and %d",
				st.ID, ts.Shed, ts.QuotaRejects, st.Shed, st.QuotaReject)
		}
	}
}

// TestTenantSeriesDoNotGrowWithTenants: the scenario at its defaults leaves
// as many series in the registry with 300 tenants as with 2000, and none of
// them names a tenant; each tenant's figures are on its account instead.
func TestTenantSeriesDoNotGrowWithTenants(t *testing.T) {
	series := map[int]int{}
	for _, n := range []int{300, 2000} {
		p := DefaultTenantParams()
		p.Tenants = n
		p.Obs = obs.New()
		if _, err := SimulateTenants(p); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		p.Obs.Metrics.WriteText(&b)
		for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			series[n]++
			if strings.Contains(line, `tenant="`) {
				t.Errorf("%d tenants: series names a tenant: %s", n, line)
			}
		}
		for _, family := range []string{
			"copernicus_queue_oldest_wait_seconds",
			"copernicus_queue_pressure",
			"copernicus_queue_shed_total",
		} {
			if !strings.Contains(b.String(), family) {
				t.Errorf("%d tenants: metrics output missing %s", n, family)
			}
		}
		t.Logf("%d tenants: %d series, %d bytes of /metrics", n, series[n], b.Len())
	}
	if series[300] != series[2000] {
		t.Errorf("series: %d with 300 tenants, %d with 2000", series[300], series[2000])
	}
}

func TestTenantScenarioDeterministic(t *testing.T) {
	p := DefaultTenantParams()
	// Trim for speed: determinism does not need the full hour.
	p.Tenants = 300
	p.HorizonSeconds = 600
	a, err := SimulateTenants(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTenants(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Submitted != b.Submitted || a.Completed != b.Completed ||
		a.Shed != b.Shed || a.MaxShareError != b.MaxShareError {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestTenantParamsValidation(t *testing.T) {
	bad := []TenantParams{
		{},
		{Tenants: 1, Workers: 1, CoresPerWorker: 1, HorizonSeconds: 10, MeanCmdSeconds: 1,
			WeightClasses: []float64{1}, HeavyPerClass: 1, ParetoAlpha: 1},
		{Tenants: 1, Workers: 1, CoresPerWorker: 1, HorizonSeconds: 10, MeanCmdSeconds: 1,
			HeavyPerClass: 1, ParetoAlpha: 2},
	}
	for i, p := range bad {
		if _, err := SimulateTenants(p); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
}
