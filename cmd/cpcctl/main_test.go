package main

import (
	"strings"
	"testing"

	"copernicus/internal/wire"
)

// TestPrintTenantShowsRefusals: a tenant's line carries its shed and
// quota-reject counts, which no metric series repeats.
func TestPrintTenantShowsRefusals(t *testing.T) {
	var b strings.Builder
	printTenant(&b, wire.TenantStatus{ID: "acme", Weight: 2, Queued: 3, Shed: 4, QuotaRejects: 5})
	line := b.String()
	for _, want := range []string{"acme ", "weight=2 ", "queued=3 ", "shed=4 ", "quota-rejects=5\n"} {
		if !strings.Contains(line, want) {
			t.Errorf("tenant line %q lacks %q", line, want)
		}
	}
}
