// Command mdrun drives the classical MD engine standalone — the reproduction
// of the Gromacs binary the paper's workers execute. It builds a synthetic
// system (LJ fluid, flexible water box, or coarse-grained polymer), runs
// dynamics with the selected thermostat, and prints an energy log.
//
// Usage:
//
//	mdrun -system ljfluid -n 256 -steps 5000 -thermostat nose-hoover -temp 120
//	mdrun -system water -n 300 -steps 2000 -shards 2
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"runtime"

	"copernicus/internal/md"
	"copernicus/internal/obs"
	"copernicus/internal/topology"
)

func main() {
	system := flag.String("system", "ljfluid", "system kind: ljfluid, water, polymer, peptide")
	n := flag.Int("n", 256, "atoms (ljfluid) / molecules (water) / beads (polymer)")
	density := flag.Float64("density", 8, "ljfluid number density, nm^-3")
	steps := flag.Int("steps", 5000, "integration steps")
	dt := flag.Float64("dt", 0.002, "timestep, ps")
	thermostat := flag.String("thermostat", "nose-hoover", "none, berendsen, langevin, nose-hoover")
	temp := flag.Float64("temp", 120, "target temperature, K")
	cutoff := flag.Float64("cutoff", 0.9, "non-bonded cutoff, nm")
	shards := flag.Int("shards", 0, "force-loop shards (thread level); 0 auto-sizes to all cores (runtime.NumCPU)")
	seed := flag.Uint64("seed", 1, "RNG seed")
	logEvery := flag.Int("log-every", 500, "energy log interval, steps")
	metricsAddr := flag.String("metrics-addr", "", "serve copernicus_md_* kernel metrics on this address (e.g. :9092); empty disables")
	flag.Parse()

	if *shards <= 0 {
		*shards = runtime.NumCPU()
	}
	if *metricsAddr != "" {
		o := obs.New()
		md.EnableMetrics(o)
		go func() {
			fmt.Printf("mdrun: metrics on http://%s/metrics\n", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, o.Handler()); err != nil {
				log.Printf("mdrun: metrics: %v", err)
			}
		}()
	}

	var sys *topology.System
	var err error
	switch *system {
	case "ljfluid":
		sys, err = topology.LJFluid(*n, *density, *seed)
	case "water":
		sys, err = topology.WaterBox(*n, *seed)
	case "polymer":
		sys, err = topology.PolymerChain(*n, *seed)
	case "peptide":
		sys, err = topology.Peptide(*n, *seed)
	default:
		log.Fatalf("mdrun: unknown system %q", *system)
	}
	if err != nil {
		log.Fatalf("mdrun: building system: %v", err)
	}

	cfg := md.DefaultConfig()
	cfg.Dt = *dt
	cfg.Cutoff = *cutoff
	cfg.Temperature = *temp
	cfg.Shards = *shards
	cfg.Seed = *seed
	switch *thermostat {
	case "none":
		cfg.Thermostat = md.NoThermostat
	case "berendsen":
		cfg.Thermostat = md.Berendsen
	case "langevin":
		cfg.Thermostat = md.Langevin
	case "nose-hoover":
		cfg.Thermostat = md.NoseHoover
	default:
		log.Fatalf("mdrun: unknown thermostat %q", *thermostat)
	}

	fmt.Printf("mdrun: %s, %d atoms, %d steps, dt=%g ps, thermostat=%s\n",
		*system, sys.Top.NAtoms(), *steps, *dt, cfg.Thermostat)

	sim, err := md.New(sys, cfg)
	if err != nil {
		log.Fatalf("mdrun: %v", err)
	}
	defer sim.Close()
	fmt.Printf("%10s %12s %12s %12s %10s\n", "step", "time/ps", "Epot", "Etot", "T/K")
	for done := 0; done < *steps; {
		chunk := *logEvery
		if done+chunk > *steps {
			chunk = *steps - done
		}
		if err := sim.Step(chunk); err != nil {
			log.Fatalf("mdrun: %v", err)
		}
		done += chunk
		e := sim.Energies()
		fmt.Printf("%10d %12.3f %12.3f %12.3f %10.1f\n",
			sim.StepCount(), sim.Time(), e.Potential(), e.Total(), sim.Temperature())
	}
}
