// Command bench is the repository's one benchmark: four wall-clock workloads
// over the real pipeline, engine, router and training loop, named end-to-end
// and per-layer metrics, output checks in the same command, and a traced run.
// README.md in this directory is its manual; BENCHMARK.json at the repository
// root is its contract.
//
//	bash bench/run.sh                                   # every workload, every metric
//	bash bench/run.sh -workload pp_sn_stream -trace 0   # one workload, end to end
//	bash bench/run.sh -workload fleet_burst -trace 1    # its traced run
//	bash bench/run.sh -compare old.json new.json        # apply the bounds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0: end to end only, 1: traced run only, -1: both
	out      string
	outDir   string
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only these workloads, comma-separated, in this order (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: inputs, arrival schedule, tenants")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: traced run and per-layer metrics only; default both")
	flag.StringVar(&o.outDir, "outdir", "bench/out", "directory for result and trace files")
	flag.StringVar(&o.out, "out", "", "result file (default <outdir>/result.json)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny nets and clouds: exercises everything in seconds, measures nothing")
	doCompare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()

	if err := checkNames(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *doCompare {
		os.Exit(compareFiles(os.Stdout, flag.Args()))
	}
	correct, err := runSuite(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

func compareFiles(w io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two result files: old.json new.json")
		return 2
	}
	var files [2]*resultFile
	for i, path := range args {
		var err error
		if files[i], err = readResultFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	worse, err := compare(w, files[0], files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d row(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}

// runSuite runs the selected workloads in the selected modes, prints every
// metric by name with its unit, writes the result file, and reports whether
// every output check held. After each workload and mode it prints the
// one-line JSON object of BENCHMARK.json's contract, so that a run of one
// workload in one mode ends with it.
func runSuite(w io.Writer, o options) (bool, error) {
	if o.seconds < 1 && !o.smoke {
		return false, fmt.Errorf("-seconds %g: a run measures at least one second", o.seconds)
	}
	specs := workloads
	if o.workload != "" {
		specs = nil
		for _, name := range strings.Split(o.workload, ",") {
			spec, err := workloadByName(name)
			if err != nil {
				return false, err
			}
			specs = append(specs, spec)
		}
	}
	sc := fullScale
	if o.smoke {
		sc = smokeScale
	}
	d := time.Duration(o.seconds * float64(time.Second))
	file := &resultFile{Env: newEnv(o.seed, o.seconds, sc), Correct: true}
	env := file.Env
	fmt.Fprintf(w, "# commit %s, %s, GOMAXPROCS %d of %d CPUs, %s, seed %d, %gs runs, %s scale, driver %s, %s\n",
		env.Commit, env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.CPUModel, env.Seed, env.Seconds, env.Scale, env.DriverVersion, env.Date)

	emit := func(r *result, kind string, table []metricSpec) error {
		file.add(w, r, kind, table)
		line, err := contractLine(r, table)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, line)
		return err
	}
	for _, spec := range specs {
		if o.trace != 1 {
			r, err := runEndToEnd(spec, sc, o.seed, d)
			if err != nil {
				return false, err
			}
			if err := emit(r, "end_to_end", endToEnd); err != nil {
				return false, err
			}
		}
		if o.trace != 0 {
			r, err := runTraced(spec, sc, o.seed, d, o.outDir)
			if err != nil {
				return false, err
			}
			fmt.Fprintf(w, "# trace written to %s\n", r.traceFile)
			if err := emit(r, "per_layer", perLayer); err != nil {
				return false, err
			}
		}
	}
	out := o.out
	if out == "" {
		out = filepath.Join(o.outDir, "result.json")
	}
	if err := file.write(out); err != nil {
		return false, err
	}
	return file.Correct, nil
}
