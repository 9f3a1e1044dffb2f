// Command rbvet runs the repo's determinism analyzers
// (internal/lint): wallclock, maporder, lanelabel and sharedrand — the
// static half of the bit-for-bit reproducibility contract that the
// golden tests pin dynamically.
//
// Usage:
//
//	rbvet [packages]
//
// loads the packages (default ./...) through `go list -export`,
// analyzes them, prints findings as file:line:col: [analyzer] message
// and exits 2 when there are any, so `make lint` and CI fail closed.
// Suppressions go through justified //rbvet:allow directives in the
// source, never through tool flags. `rbvet help` prints each
// analyzer's contract.
package main

import (
	"fmt"
	"log"
	"os"

	"authradio/internal/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rbvet: ")
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "help" {
		printHelp()
		return
	}
	run(args)
}

func printHelp() {
	fmt.Printf("rbvet: determinism lint for the authradio repro\n\n")
	fmt.Printf("usage: rbvet [packages]   (default ./...)\n\n")
	fmt.Printf("suppress a finding with a justified directive on the line or the line above:\n")
	fmt.Printf("  //rbvet:allow <analyzer> <reason>\n\n")
	for _, a := range lint.All() {
		fmt.Printf("%s\n  %s\n\n", a.Name, a.Doc)
	}
}

func run(patterns []string) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		log.Fatal(err)
	}
	findings := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, lint.All())
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range diags {
			fmt.Println(d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "rbvet: %d finding(s)\n", findings)
		os.Exit(2)
	}
}
