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

// The goldens below pin the two rebuild paths md_ensemble does not take,
// with final energy bits captured before the md package's minimum-image
// helper replaced vec.Box.MinImage on its hot paths: a water box wide enough
// for the cell grid (400 waters, 2.30 nm edge against 3 × 0.68 nm) on a
// 2-core grant, and an aperiodic peptide run serially, which takes the
// all-pairs sweep with no periodic axis and every bonded term class. The
// peptide has 6 residues because topology.Peptide starts longer chains with
// atoms i and i+5 overlapping, and those runs blow up within ten steps.
// Skipped off amd64 for the reason given above.

func TestMDEngineCellGridGolden(t *testing.T) {
	cfg := md.DefaultConfig()
	cfg.Cutoff = 0.6
	cfg.Skin = 0.08
	cfg.Shards = 0
	cfg.Seed = 1
	p := &MDPayload{SystemKind: "water", SystemN: 400, BuildSeed: 1, Config: cfg, Steps: 60}
	checkMDGolden(t, p, 2, [4]uint64{0x410eac6dfd8c34e9, 0x40fd0477b62f0c12, 0x40b90212c55247ef, 0xc0c878ee47935c3e})
}

func TestMDEnginePeptideGolden(t *testing.T) {
	cfg := md.DefaultConfig()
	cfg.Shards = 1
	cfg.Seed = 1
	p := &MDPayload{SystemKind: "peptide", SystemN: 6, BuildSeed: 1, Config: cfg, Steps: 60}
	checkMDGolden(t, p, 1, [4]uint64{0x406d12549ae5f3d5, 0x406742d4dc20fbea, 0xbfebc131889d5d06, 0xbfd90ad0d75ea746})
}

// checkMDGolden runs payload p through MDEngine.Run on a grant of cores and
// demands the final total, kinetic, LJ and Coulomb energy bits in want.
func checkMDGolden(t *testing.T, p *MDPayload, cores int, want [4]uint64) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("golden energy bits were captured on amd64; other backends may fuse multiply-adds")
	}
	payload, err := wire.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := wire.CommandSpec{ID: "golden", Project: "p", Type: MDName, MinCores: cores, MaxCores: cores, Payload: payload}
	out, err := (&MDEngine{}).Run(context.Background(), spec, cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	var res MDOutput
	if err := wire.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	got := [4]float64{res.Final.Total(), res.Final.Kinetic, res.Final.LJ, res.Final.Coulomb}
	for k, name := range [4]string{"total", "kinetic", "LJ", "Coulomb"} {
		if bits := math.Float64bits(got[k]); bits != want[k] {
			t.Errorf("%s energy %v (%#x), golden %v (%#x)", name, got[k], bits, math.Float64frombits(want[k]), want[k])
		}
	}
}
