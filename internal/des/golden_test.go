package des

import (
	"fmt"
	"os"
	"testing"
)

// TestTenantScenarioMatchesParentGolden: dispatching through the server's
// core, the multi-tenant scenario scores byte for byte what it scored on the
// fleet's own copy of the server's dispatch, at the default parameters and
// at TestTenantScenarioDeterministic's trimmed ones. The goldens were
// captured from that build; they are captured bytes — never regenerate them
// from current code.
func TestTenantScenarioMatchesParentGolden(t *testing.T) {
	trimmed := DefaultTenantParams()
	trimmed.Tenants = 300
	trimmed.HorizonSeconds = 600
	for file, p := range map[string]TenantParams{
		"testdata/tenants_default.golden": DefaultTenantParams(),
		"testdata/tenants_trimmed.golden": trimmed,
	} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateTenants(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v\n", res); got != string(want) {
			t.Errorf("%s drifted:\n got  %s want %s", file, got, want)
		}
	}
}
