// allbench regenerates the experiment tables (E1-E19) from the
// experiments.Runners() registry — the CLI twin of
// `go test -bench=Tables -benchtime=1x .`.
//
// Usage:
//
//	allbench [-seed N] [-table E6,E6b,...] [-big]
//
// With no -table every table runs; -big selects each table's larger sweep
// where the registry has one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 2018, "deterministic seed")
	table := flag.String("table", "", "comma-separated experiment table IDs (e.g. E9 or E6,E6b,E6c,E8b); empty runs all")
	big := flag.Bool("big", false, "larger sweeps (slower)")
	flag.Parse()
	runners := experiments.Runners()
	if *table != "" {
		var err error
		if runners, err = experiments.Select(strings.Split(*table, ",")...); err != nil {
			fmt.Fprintf(os.Stderr, "allbench: %v\n", err)
			os.Exit(2)
		}
	}
	for _, t := range experiments.Tables(runners, *seed, *big) {
		fmt.Println(t)
	}
}
