// Command benchtab prints the tables of the internal/bench experiment
// registry (F1 and E1–E21): the empirical validation of every theorem of
// the paper on this implementation.
//
// Usage:
//
//	benchtab                      # run everything (a few minutes)
//	benchtab -quick               # smaller workloads (tens of seconds)
//	benchtab -only E4             # a single experiment
//	benchtab -only E1,E7,E15      # a comma-separated subset
//	benchtab -json out.json       # additionally dump the tables as JSON
//	benchtab -list                # list experiment ids
//
// The JSON dump is the machine-readable artifact CI archives per commit,
// so the performance trajectory accumulates alongside the human tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

// errWriter tracks the first write failure so table rendering (whose
// Fprint helpers do not return errors) still surfaces a broken stdout as
// a non-zero exit instead of silently truncating the artifact.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}

// report is the JSON artifact shape: enough metadata to compare runs
// across commits and machines.
type report struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Quick      bool           `json:"quick"`
	Elapsed    string         `json:"elapsed"`
	Tables     []*bench.Table `json:"tables"`
}

func main() {
	var (
		quick    = flag.Bool("quick", false, "shrink workloads for a fast pass")
		only     = flag.String("only", "", "run a subset of experiment ids, comma-separated (e.g. E4, E19, or E1,E15)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		jsonPath = flag.String("json", "", "write the tables as JSON to this file")
	)
	flag.Parse()
	stdout := &errWriter{w: os.Stdout}
	if *list {
		for _, id := range bench.IDs() {
			fmt.Fprintln(stdout, id)
		}
		if stdout.err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: writing output: %v\n", stdout.err)
			os.Exit(1)
		}
		return
	}
	start := time.Now()
	var tables []*bench.Table
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			tab := bench.ByID(id, *quick)
			if tab == nil {
				fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q (known: %s)\n",
					id, strings.Join(knownIDs(), ", "))
				os.Exit(2)
			}
			tables = append(tables, tab)
		}
		// A -only value that names nothing (e.g. "," or whitespace) used
		// to run zero experiments and exit 0 — indistinguishable from
		// success in CI logs. Fail loudly instead.
		if len(tables) == 0 {
			fmt.Fprintf(os.Stderr, "benchtab: -only %q selects no experiments (known: %s)\n",
				*only, strings.Join(knownIDs(), ", "))
			os.Exit(2)
		}
	} else {
		tables = bench.All(*quick)
	}
	for _, tab := range tables {
		tab.Fprint(stdout)
	}
	elapsed := time.Since(start)
	if *jsonPath != "" {
		rep := report{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Quick:      *quick,
			Elapsed:    elapsed.Round(time.Millisecond).String(),
			Tables:     tables,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(stdout, "total: %s\n", elapsed.Round(time.Millisecond))
	if stdout.err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: writing output: %v\n", stdout.err)
		os.Exit(1)
	}
}

// knownIDs is the experiment list for error messages, sorted so the
// output is stable regardless of how the registry enumerates (the
// detrand standard, applied here even though cmds are exempt).
func knownIDs() []string {
	ids := append([]string(nil), bench.IDs()...)
	sort.Strings(ids)
	return ids
}
