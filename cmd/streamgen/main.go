// Command streamgen is the repository's counterpart of the paper's
// stream-gen tool (§4.2): it analyzes a Go source file and generates the
// StreamInsert/StreamExtract methods (the inserter and extractor operators)
// for its struct types. Fields it cannot handle mechanically — pointers,
// maps, channels, interfaces — become TODO comments for the programmer,
// exactly as stream-gen emitted "comment statements allowing the programmer
// to specify exactly how the pointers should be handled".
//
// Usage:
//
//	streamgen [-types T1,T2] [-dstream importpath] file.go
//	streamgen -schema T file.go
//
// The generated file is written next to the input as <file>_streams.go.
// A package runs it through a directive beside the declarations:
//
//	//go:generate go run pcxxstreams/cmd/streamgen -types T file.go
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pcxxstreams/internal/streamgen"
)

func main() {
	var (
		types   = flag.String("types", "", "comma-separated struct types to generate for (default: all)")
		dstream = flag.String("dstream", "", "import path of the d/stream package (default pcxxstreams/internal/dstream)")
		schema  = flag.String("schema", "", "print the cmd/ds2json schema for this struct type and exit")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: streamgen [-types T1,T2] [-dstream path] [-schema T] file.go")
		os.Exit(2)
	}
	in := flag.Arg(0)
	src, err := os.ReadFile(in)
	if err != nil {
		fatal(err)
	}

	if *schema != "" {
		out, err := streamgen.SchemaFor(src, in, *schema)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		return
	}

	opts := streamgen.Options{DStreamImport: *dstream}
	for _, t := range strings.Split(*types, ",") {
		if t = strings.TrimSpace(t); t != "" {
			opts.Types = append(opts.Types, t)
		}
	}
	gen, err := streamgen.Generate(src, in, opts)
	if err != nil {
		fatal(err)
	}
	dest := strings.TrimSuffix(in, ".go") + "_streams.go"
	if err := os.WriteFile(dest, gen, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "streamgen: wrote %s\n", dest)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "streamgen:", err)
	os.Exit(1)
}
