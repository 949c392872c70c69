// Command bench is the repository's benchmark: five workloads over the
// crawler and its serving plane, end-to-end and per-layer metrics, output
// checks. See README.md in this directory.
//
//	go run -C bench .                      every workload, untraced then traced; writes out/results.json
//	go run -C bench . -workload crawl_mem  one workload of the set
//	go run -C bench . -smoke               the set scaled to ~2 s per run, checks on, no bounds
//	go run -C bench . -repeat 2            two sets, compared under the bounds
//	go run -C bench . compare A.json B.json
//	go run -C bench . spec                 print BENCHMARK.json
//
// The driver's form runs one workload once and prints its result as the
// last line of standard output:
//
//	go run -C bench . --workload crawl_mem --seed 7 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "spec":
			os.Stdout.Write(benchmarkJSON())
			return
		case "compare":
			if len(os.Args) != 4 {
				fatal("usage: bench compare A.json B.json")
			}
			os.Exit(compareFiles(os.Args[2], os.Args[3]))
		}
	}
	var (
		workload = flag.String("workload", "", "run only this workload")
		seed     = flag.Int64("seed", 1999, "seed for every generated input")
		seconds  = flag.Float64("seconds", runSeconds, "nominal length of one measured run")
		trace    = flag.Int("trace", -1, "0 or 1: run the one -workload once, untraced or traced, and print the driver's result line")
		smoke    = flag.Bool("smoke", false, "scale every workload to ~2 s, keep the checks, skip the bounds")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times and compare consecutive sets under the bounds")
		out      = flag.String("out", filepath.Join("out", "results.json"), "where the set's results go; traces and scratch live beside it")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *workload != "" && !knownWorkload(*workload) {
		fatal("unknown workload %q", *workload)
	}
	if *smoke {
		*seconds = 2
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	outDir := filepath.Dir(*out)

	if *trace >= 0 {
		if *workload == "" {
			fatal("-trace needs -workload")
		}
		p := params{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, setups: 1, outDir: outDir}
		if !p.traced && !*smoke {
			p.setups = timedSetups(*workload) // only the untraced run reports setup_s
		}
		rec, err := runOne(p)
		if err != nil {
			fatal("%s: %v", *workload, err)
		}
		for _, problem := range rec.Detail.Problems {
			fmt.Fprintln(os.Stderr, "bench: check failed:", problem)
		}
		if err := writeJSONFile(recordPath(outDir, *workload, p.traced), rec); err != nil {
			fatal("%v", err)
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		return
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	var prev *resultSet
	status := 0
	for r := 1; r <= max(*repeat, 1); r++ {
		path := *out
		if r > 1 {
			path = strings.TrimSuffix(path, ".json") + fmt.Sprintf(".%d.json", r)
		}
		set, ok := runSet(names, *seed, *seconds, *smoke, outDir)
		if err := writeJSONFile(path, set); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintln(os.Stderr, "bench: wrote", path)
		if !ok {
			status = 1
		}
		if prev != nil && !*smoke {
			if compareSets(prev, set) != 0 {
				status = 1
			}
		}
		prev = set
	}
	os.Exit(status)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func recordPath(outDir, workload string, traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, workload+"."+kind+".json")
}

// resultSet is results.json: every run of one pass over the workloads.
type resultSet struct {
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Smoke     bool        `json:"smoke,omitempty"`
	Workloads []string    `json:"workloads"` // asked for; a run missing from Runs did not complete
	Runs      []runRecord `json:"runs"`
}

// asked reports whether the set was to run the workload.
func (s *resultSet) asked(workload string) bool {
	for _, w := range s.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

func (s *resultSet) find(workload string, traced bool) *runRecord {
	for i := range s.Runs {
		if s.Runs[i].Workload == workload && s.Runs[i].Traced == traced {
			return &s.Runs[i]
		}
	}
	return nil
}

// runSet runs each workload untraced and traced, each run in its own
// process so peak RSS, GC state and the program's process-global metrics
// registry belong to that run alone. It prints every metric and reports
// whether every run completed and every output check passed.
func runSet(names []string, seed int64, seconds float64, smoke bool, outDir string) (*resultSet, bool) {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	set := &resultSet{Seed: seed, Seconds: seconds, Smoke: smoke, Workloads: names}
	ok := true
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			args := []string{
				"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", map[bool]string{false: "0", true: "1"}[traced],
				"-out", filepath.Join(outDir, "results.json"),
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (traced=%v) did not complete: %v\n", name, traced, err)
				ok = false
				continue
			}
			var rec runRecord
			b, err := os.ReadFile(recordPath(outDir, name, traced))
			if err == nil {
				err = json.Unmarshal(b, &rec)
			}
			if err != nil {
				fatal("reading %s's record: %v", name, err)
			}
			if plain := set.find(name, false); traced && plain != nil && rec.Detail.OpsPerS > 0 {
				rec.Result.Metrics[traceOverhead.Name] = metricValue{
					Value: (plain.Detail.OpsPerS/rec.Detail.OpsPerS - 1) * 100,
					Unit:  traceOverhead.Unit,
				}
			}
			set.Runs = append(set.Runs, rec)
			printRun(&rec)
			if !rec.Result.Correct {
				ok = false
			}
		}
	}
	return set, crossChecks(set) && ok
}

func printRun(rec *runRecord) {
	kind, specs := "untraced", endToEnd
	if rec.Traced {
		kind, specs = "traced", append(perLayer[:len(perLayer):len(perLayer)], traceOverhead)
	}
	fmt.Printf("\n%s (%s, seed %d): correct=%v attempted=%d failed=%d wall=%.2fs\n",
		rec.Workload, kind, rec.Seed, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, rec.Detail.WallS)
	fmt.Printf("  op timing: %d samples, median and p%.4g\n", rec.Detail.Op.N, rec.Detail.Op.TailP*100)
	for _, m := range specs {
		v := rec.Result.Metrics[m.Name].Value
		if rec.Traced && v == 0 {
			continue // layer not exercised by this workload
		}
		fmt.Printf("  %-32s %14.6g %s\n", m.Name, v, m.Unit)
	}
	if !rec.Traced {
		fmt.Println("  as ISSUE 11 names them:")
		for _, m := range issueMetrics {
			if v, ok := rec.Issue[m.Name]; ok {
				fmt.Printf("  %-32s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
	if n := rec.Detail.StoreClosed; n > 0 {
		fmt.Printf("  %d of the failed requests were answered 500 \"store: closed\" (View-to-read window across a swap)\n", n)
	}
	for _, p := range rec.Detail.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// crossChecks compares deterministic outcomes across the runs of one set:
// a workload's untraced and traced processes must agree, and
// crawl_cluster_disk must have built exactly crawl_mem's collection.
func crossChecks(set *resultSet) bool {
	ok := true
	same := func(what string, a, b *runRecord) {
		if a == nil || b == nil {
			return
		}
		if a.Detail.Digest != b.Detail.Digest || a.Detail.Fetches != b.Detail.Fetches {
			fmt.Printf("CHECK FAILED: %s: digest %s (%d fetches) vs %s (%d fetches)\n",
				what, a.Detail.Digest, a.Detail.Fetches, b.Detail.Digest, b.Detail.Fetches)
			ok = false
		}
	}
	for _, w := range workloads {
		same(w.Name+" untraced vs traced", set.find(w.Name, false), set.find(w.Name, true))
	}
	same("crawl_mem vs crawl_cluster_disk", set.find(crawlMem, false), set.find(crawlClusterDisk, false))
	return ok
}
