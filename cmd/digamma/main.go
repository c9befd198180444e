// Command digamma runs one HW-Mapping co-optimization: pick a model, a
// platform, an algorithm and a sampling budget, get back the best
// accelerator design point with its full performance report.
//
// Examples:
//
//	digamma -model resnet18 -platform edge -budget 4000
//	digamma -model bert -platform cloud -alg CMA -objective latency-area
//	digamma -model mnasnet -fixed-pes 16x8 -fixed-l1 4096 -fixed-l2 524288
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"digamma"
	"digamma/internal/coopt"
)

func main() {
	var (
		modelName = flag.String("model", "resnet18", "model: "+strings.Join(digamma.ModelNames, ", "))
		platName  = flag.String("platform", "edge", "platform: edge or cloud")
		algorithm = flag.String("alg", "DiGamma", "algorithm: "+strings.Join(digamma.Algorithms(), ", "))
		objective = flag.String("objective", "latency", "objective: latency, energy, edp, latency-area")
		budget    = flag.Int("budget", 4000, "sampling budget (design points evaluated)")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "parallel evaluation workers (0 = all cores, 1 = serial; results identical)")
		fidelity  = flag.String("fidelity", "analytical", "cost-model tier: "+strings.Join(digamma.Fidelities(), ", "))
		prune     = flag.Bool("prune", false, "screen candidates with the roofline lower bound (genetic engines incl. fixed-HW GAMMA; vector baselines ignore it)")
		islands   = flag.Int("islands", 0, "split the genetic search into K semi-isolated populations with ring elite migration (<=1 = classic single population; results never depend on -workers)")
		migrate   = flag.Int("migrate-every", 0, "island elite-migration period in generations (0 = engine default)")
		profiles  = flag.String("island-profile", "", "comma-separated per-island operator profiles, rotated across islands: "+strings.Join(digamma.IslandProfiles(), ", "))
		fixedPEs  = flag.String("fixed-pes", "", "fixed-HW mode: PE hierarchy, e.g. 16x8 (inner x outer)")
		fixedL1   = flag.Int64("fixed-l1", 0, "fixed-HW mode: per-PE L1 bytes")
		fixedL2   = flag.Int64("fixed-l2", 0, "fixed-HW mode: shared L2 bytes")
		perLayer  = flag.Bool("layers", false, "print the per-layer breakdown")
		modelCSV  = flag.String("model-csv", "", "path to a custom model in CSV layer format (overrides -model)")
		jsonOut   = flag.String("json", "", "write the full design-point report as JSON to this path ('-' = stdout)")
	)
	flag.Parse()

	if err := run(*modelName, *platName, *algorithm, *objective, *budget, *seed, *workers,
		*fidelity, *prune, *islands, *migrate, splitProfiles(*profiles),
		*fixedPEs, *fixedL1, *fixedL2, *perLayer, *modelCSV, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "digamma:", err)
		os.Exit(1)
	}
}

// splitProfiles turns the -island-profile flag into a profile rotation;
// empty means the default profile on every island.
func splitProfiles(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func run(modelName, platName, algorithm, objective string, budget int, seed int64, workers int,
	fidelity string, prune bool, islands, migrateEvery int, profiles []string,
	fixedPEs string, fixedL1, fixedL2 int64, perLayer bool, modelCSV, jsonOut string) error {

	var model digamma.Model
	var err error
	if modelCSV != "" {
		model, err = digamma.LoadModelCSVFile(modelCSV)
	} else {
		model, err = digamma.LoadModel(modelName)
	}
	if err != nil {
		return err
	}
	var platform digamma.Platform
	switch platName {
	case "edge":
		platform = digamma.EdgePlatform()
	case "cloud":
		platform = digamma.CloudPlatform()
	default:
		return fmt.Errorf("unknown platform %q", platName)
	}
	obj, err := coopt.ParseObjective(objective)
	if err != nil {
		return err
	}
	opts := digamma.Options{Budget: budget, Seed: seed, Objective: obj, Algorithm: algorithm,
		Workers: workers, Fidelity: fidelity, Prune: prune,
		Islands: islands, MigrateEvery: migrateEvery, IslandProfiles: profiles}

	var best *digamma.Evaluation
	if fixedPEs != "" {
		hw, err := parseHW(fixedPEs, fixedL1, fixedL2)
		if err != nil {
			return err
		}
		best, err = digamma.OptimizeMapping(model, platform, hw, opts)
		if err != nil {
			return err
		}
	} else {
		best, err = digamma.Optimize(model, platform, opts)
		if err != nil {
			return err
		}
	}

	fmt.Printf("model:      %s (%d layers, %.2f GMACs)\n",
		model.Name, len(model.Layers), float64(model.MACs())/1e9)
	fmt.Printf("platform:   %s (budget %.2f mm²)\n", platform.Name, platform.AreaBudgetMM2)
	fmt.Printf("algorithm:  %s, budget %d samples, seed %d\n", algorithm, budget, seed)
	fmt.Printf("valid:      %v\n", best.Valid)
	fmt.Printf("hardware:   %s\n", best.HW)
	fmt.Printf("area:       %s\n", best.Area)
	fmt.Printf("latency:    %.4e cycles\n", best.Cycles)
	fmt.Printf("energy:     %.4e pJ\n", best.EnergyPJ)
	fmt.Printf("lat×area:   %.4e cycle·mm²\n", best.LatAreaProd)
	if perLayer {
		fmt.Println("\nper-layer breakdown (unique layers):")
		for li, le := range best.Layers {
			fmt.Printf("  %-18s x%-3d  %.3e cycles  util %.2f  %s\n",
				le.Layer.Name, le.Layer.Multiplicity(), le.Score.Cycles,
				le.Score.Utilization, best.Genome.Maps[li])
		}
	}
	if jsonOut != "" {
		w := os.Stdout
		if jsonOut != "-" {
			f, err := os.Create(jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := digamma.WriteReport(w, best); err != nil {
			return err
		}
	}
	return nil
}

// parseHW builds a fixed hardware configuration from CLI flags.
func parseHW(pes string, l1, l2 int64) (digamma.HW, error) {
	parts := strings.Split(pes, "x")
	fanouts := make([]int, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || f < 1 {
			return digamma.HW{}, fmt.Errorf("bad -fixed-pes %q", pes)
		}
		fanouts = append(fanouts, f)
	}
	if len(fanouts) < 2 {
		return digamma.HW{}, fmt.Errorf("-fixed-pes needs at least two levels, e.g. 16x8")
	}
	if l1 <= 0 || l2 <= 0 {
		return digamma.HW{}, fmt.Errorf("fixed-HW mode needs -fixed-l1 and -fixed-l2 bytes")
	}
	buf := make([]int64, len(fanouts))
	buf[0] = l1
	for i := 1; i < len(buf); i++ {
		buf[i] = l2
	}
	return digamma.HW{Fanouts: fanouts, BufBytes: buf}, nil
}
