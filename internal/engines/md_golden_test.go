package engines

import (
	"context"
	"math"
	"runtime"
	"testing"

	"copernicus/internal/md"
	"copernicus/internal/wire"
)

// TestMDEngineEnsembleGolden runs the md_ensemble benchmark's command — 192
// waters (build seed 1) under the paper's protocol at cutoff 0.6 + skin 0.08,
// seed 1, 60 steps on a 2-core grant — and demands the final energies of the
// build before the all-pairs sweep went parallel, bit for bit. The box is
// under three listing radii, so every rebuild takes that sweep: a rebuild
// that reorders, drops or re-bakes a single pair moves these bits.
//
// The bits are amd64's: the Go spec lets a compiler fuse x*y+z into one
// rounding, which the arm64 and other backends do and amd64 (at the default
// GOAMD64=v1) does not, so other architectures integrate to different, equally
// valid, last bits.
func TestMDEngineEnsembleGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden energy bits were captured on amd64; other backends may fuse multiply-adds")
	}
	cfg := md.DefaultConfig()
	cfg.Cutoff = 0.6
	cfg.Skin = 0.08
	cfg.Shards = 0
	cfg.Seed = 1
	p := &MDPayload{SystemKind: "water", SystemN: 192, BuildSeed: 1, Config: cfg, Steps: 60}
	payload, err := wire.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := wire.CommandSpec{ID: "golden", Project: "p", Type: MDName, MinCores: 2, MaxCores: 2, Payload: payload}
	out, err := (&MDEngine{}).Run(context.Background(), spec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var res MDOutput
	if err := wire.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"total", res.Final.Total(), 0x40feb0401e0d419a},
		{"kinetic", res.Final.Kinetic, 0x40eddbe3baf4edf1},
		{"LJ", res.Final.LJ, 0x409dcf603d1a9a7e},
		{"Coulomb", res.Final.Coulomb, 0xc0ae0bfc38565bf6},
	} {
		if bits := math.Float64bits(c.got); bits != c.want {
			t.Errorf("%s energy %v (%#x), golden %v (%#x)", c.name, c.got, bits, math.Float64frombits(c.want), c.want)
		}
	}
}
