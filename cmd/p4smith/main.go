// Command p4smith is the random P4 program generator (§4): it emits
// syntactically sound, well-typed programs for a chosen back-end skeleton.
//
// Usage:
//
//	p4smith [-seed N] [-n COUNT] [-backend v1model|tna] [-stmts N]
//
// Each program is printed to stdout, separated by a comment banner.
package main

import (
	"flag"
	"fmt"
	"os"

	"gauntlet/internal/generator"
	"gauntlet/internal/p4/printer"
)

func main() {
	seed := flag.Int64("seed", 1, "first generation seed")
	n := flag.Int("n", 1, "number of programs to generate")
	backend := flag.String("backend", "v1model", "package skeleton: v1model or tna")
	stmts := flag.Int("stmts", 8, "maximum statements per block body")
	flag.Parse()

	be, err := generator.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4smith: %v\n", err)
		os.Exit(2)
	}
	for i := 0; i < *n; i++ {
		cfg := generator.DefaultConfig(*seed + int64(i))
		cfg.MaxStmts = *stmts
		cfg.Backend = be
		prog := generator.Generate(cfg)
		if *n > 1 {
			fmt.Printf("// ---- seed %d ----\n", *seed+int64(i))
		}
		fmt.Println(printer.Print(prog))
	}
}
