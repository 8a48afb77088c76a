// Command tables regenerates the paper's tables and figures.
//
// Usage:
//
//	tables [-exp name|all] [-scale ci|paper]
//
// Experiments: table1 figure1 table2 table3 table4 table5 table6 table7
// alt-heuristic relprime commfrac critpath concurrency subcube blocksize
// irrblocking priosched commscaling onedim arbitrary organizations colfan
// amalgamation domains faults timeline (-exp with an unknown name
// lists them with their descriptions).
// -scale paper uses the paper's matrix sizes (minutes of CPU); the default
// ci scale uses structurally identical reduced matrices.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"blockfanout/internal/experiments"
	"blockfanout/internal/gen"
)

func main() {
	expName := flag.String("exp", "all", "experiment to run (or 'all')")
	scaleName := flag.String("scale", "ci", "matrix scale: ci or paper")
	flag.Parse()

	var scale gen.Scale
	switch *scaleName {
	case "ci":
		scale = gen.ScaleCI
	case "paper":
		scale = gen.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want ci or paper)\n", *scaleName)
		os.Exit(2)
	}
	cfg := experiments.Default(scale)

	var runners []experiments.Runner
	if *expName == "all" {
		runners = experiments.All()
	} else {
		r, ok := experiments.ByName(*expName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", *expName)
			for _, r := range experiments.All() {
				fmt.Fprintf(os.Stderr, "  %-14s %s\n", r.Name, r.Desc)
			}
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	for _, r := range runners {
		fmt.Printf("== %s — %s (scale=%s)\n", r.Name, r.Desc, *scaleName)
		start := time.Now()
		if err := r.Run(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, err)
			os.Exit(1)
		}
		fmt.Printf("-- %s done in %v\n\n", r.Name, time.Since(start).Round(time.Millisecond))
	}
}
