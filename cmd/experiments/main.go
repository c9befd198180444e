// Command experiments regenerates the paper's evaluation figures:
//
//	experiments fig5           # algorithm comparison (both platforms)
//	experiments fig6           # scheme comparison (both platforms)
//	experiments fig7           # MnasNet solution walk-through
//	experiments all            # everything, in paper order
//
// Flags scale the run: -budget matches the paper's 40K-sample protocol
// when you have the minutes to spare; the default regenerates the same
// table shapes in well under a minute.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"digamma"
	"digamma/internal/arch"
	"digamma/internal/figures"
)

func main() {
	var (
		budget   = flag.Int("budget", 2000, "sampling budget per algorithm run (paper: 40000)")
		seed     = flag.Int64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "parallel experiment cells / evaluation workers (0 = all cores, 1 = serial; tables identical)")
		fidelity = flag.String("fidelity", "analytical", "cost-model tier: bound, analytical, physical")
		prune    = flag.Bool("prune", false, "screen candidates with the roofline lower bound (DiGamma and Gamma cells; vector baselines ignore it)")
		islands  = flag.Int("islands", 0, "island-model DiGamma/Gamma cells: K semi-isolated populations with ring elite migration (<=1 = single population)")
		migrate  = flag.Int("migrate-every", 0, "island elite-migration period in generations (0 = engine default)")
		profs    = flag.String("island-profile", "", "comma-separated per-island operator profiles, rotated across islands: "+strings.Join(digamma.IslandProfiles(), ", "))
		models   = flag.String("models", "", "comma-separated model subset (default: all 7)")
		platform = flag.String("platform", "", "restrict to edge or cloud (default: both)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		verbose  = flag.Bool("v", false, "log every individual run")
	)
	// Allow the subcommand anywhere relative to the flags ("experiments
	// fig5 -budget 100" and "experiments -budget 100 fig5" both work);
	// flag.Parse alone stops at the first non-flag token.
	which := "all"
	var rest []string
	for _, a := range os.Args[1:] {
		switch a {
		case "fig5", "fig6", "fig7", "ablation", "convergence", "multiseed", "islands", "all":
			which = a
		default:
			rest = append(rest, a)
		}
	}
	if err := flag.CommandLine.Parse(rest); err != nil {
		os.Exit(2)
	}

	opts := figures.Options{Budget: *budget, Seed: *seed, Workers: *workers, Fidelity: *fidelity, Prune: *prune,
		Islands: *islands, MigrateEvery: *migrate}
	if *profs != "" {
		for _, p := range strings.Split(*profs, ",") {
			opts.IslandProfiles = append(opts.IslandProfiles, strings.TrimSpace(p))
		}
	}
	if *models != "" {
		opts.Models = strings.Split(*models, ",")
	}
	if *verbose {
		opts.Log = os.Stderr
	}

	var platforms []arch.Platform
	switch *platform {
	case "":
		platforms = []arch.Platform{arch.Edge(), arch.Cloud()}
	case "edge":
		platforms = []arch.Platform{arch.Edge()}
	case "cloud":
		platforms = []arch.Platform{arch.Cloud()}
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown platform %q\n", *platform)
		os.Exit(1)
	}

	if err := run(os.Stdout, which, platforms, opts, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, which string, platforms []arch.Platform, opts figures.Options, csv bool) error {
	emit := func(render, csvText string) {
		if csv {
			fmt.Fprintln(w, csvText)
		} else {
			fmt.Fprintln(w, render)
		}
	}
	switch which {
	case "fig5":
		for _, p := range platforms {
			lat, lap, err := figures.Fig5(p, opts)
			if err != nil {
				return err
			}
			emit(lat.Render(), lat.CSV())
			emit(lap.Render(), lap.CSV())
		}
	case "fig6":
		for _, p := range platforms {
			tb, err := figures.Fig6(p, opts)
			if err != nil {
				return err
			}
			emit(tb.Render(), tb.CSV())
		}
	case "fig7":
		sols, tb, err := figures.Fig7(opts)
		if err != nil {
			return err
		}
		if csv {
			fmt.Fprintln(w, tb.CSV())
		} else {
			fmt.Fprintln(w, figures.RenderFig7(sols, tb))
		}
	case "ablation":
		for _, p := range platforms {
			tb, err := figures.Ablation(p, opts)
			if err != nil {
				return err
			}
			emit(tb.Render(), tb.CSV())
		}
	case "convergence":
		for _, p := range platforms {
			for _, m := range opts.Models {
				tb, err := figures.Convergence(p, m, 10, opts)
				if err != nil {
					return err
				}
				emit(tb.Render(), tb.CSV())
			}
		}
	case "multiseed":
		for _, p := range platforms {
			for _, m := range opts.Models {
				tb, err := figures.MultiSeed(p, m, 5, opts)
				if err != nil {
					return err
				}
				emit(tb.Render(), tb.CSV())
			}
		}
	case "islands":
		for _, p := range platforms {
			tb, err := figures.IslandSweep(p, opts)
			if err != nil {
				return err
			}
			emit(tb.Render(), tb.CSV())
		}
	case "all":
		for _, sub := range []string{"fig5", "fig6", "fig7", "ablation"} {
			if err := run(w, sub, platforms, opts, csv); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q (want fig5, fig6, fig7, ablation, convergence, multiseed, islands or all)", which)
	}
	return nil
}
