// Command bench is the repository benchmark: it builds cmd/streamd, drives
// four workloads against real streamd child processes over loopback TCP
// (ingest → alert throughput, CPU, memory and latency), checks every alert
// stream byte for byte against an offline reference, and — in a separate
// in-process traced run — times the calls into each layer for a per-layer
// cost ledger. README.md in this directory defines every metric.
//
//	bash bench/run.sh                      # everything, human-readable
//	bash bench/run.sh -workload q1_bin     # one workload
//	bash bench/run.sh -repeat 5            # spread of every metric vs its bound
//	bash bench/run.sh -quick               # smoke run; numbers not comparable
//
// The driver's form is
// --workload NAME --seed N --seconds S --trace 0|1, which prints as its last
// stdout line one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed    = 1
	defaultSeconds = 15
	// traceAuto is the human default: end-to-end and per-layer metrics both.
	traceAuto = -1
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all four)")
		seed    = flag.Int64("seed", defaultSeed, "seed for the warehouse, the scan trace and the T operator")
		seconds = flag.Int("seconds", defaultSeconds, "measured seconds per workload, split equally over the sat, lo and hi phases of each round")
		trace   = flag.Int("trace", traceAuto, "0: end-to-end metrics only; 1: run the traced in-process pass and report per-layer metrics; default both")
		repeat  = flag.Int("repeat", 1, "run the set this many times and report each metric's spread against its bound")
		quick   = flag.Bool("quick", false, "smoke mode: small trace, 0.4 s phases, one set-up; numbers are NOT comparable")
		out     = flag.String("out", "", "output directory for trace.json, the streamd binary and failure logs (default <root>/.bench_build/out)")
		root    = flag.String("root", "", "repository root (default: . or .., whichever holds cmd/streamd)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	repo, err := findRoot(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}
	if *seconds < 3 || *repeat < 1 || *trace < traceAuto || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds ≥ 3, -repeat ≥ 1, -trace 0 or 1")
		return 2
	}
	if *out == "" {
		*out = filepath.Join(repo, ".bench_build", "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	cfg := runConfig{
		seed:   *seed,
		events: traceEvents,
		phase:  time.Duration(*seconds) * time.Second / (3 * rounds),
		setups: 3,
		out:    *out,
	}
	if *quick {
		cfg.events, cfg.phase, cfg.setups = 300, 400*time.Millisecond, 1
	}

	printTestbed(*quick)

	// Every exit path reaps the children: normal returns through the
	// deferred stopAll in runWorkload, signals through this handler.
	ps := &procs{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ps.stopAll(*out, false)
		os.Exit(130)
	}()

	if cfg.bin, cfg.buildS, err = buildStreamd(repo, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	var runs [][]*result // runs[rep][workload]
	for rep := 0; rep < *repeat; rep++ {
		var set []*result
		for i := range selected {
			w := &selected[i]
			fmt.Printf("\n== %s (seed %d, run %d of %d) — %s\n", w.name, cfg.seed, rep+1, *repeat, w.why)
			res, err := runWorkload(w, cfg, ps)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printResult(res, *trace != 0)
			set = append(set, res)
		}
		runs = append(runs, set)
	}

	var ledger []metric
	if *trace != 0 {
		fmt.Printf("\n== traced in-process run (seed %d)\n", cfg.seed)
		if ledger, err = runLedger(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench: ledger:", err)
			return 1
		}
		printMetrics(ledger)
	}

	code := 0
	if *repeat > 1 {
		bounds, err := readBounds(filepath.Join(repo, "BENCHMARK.json"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !printSpreads(runs, bounds) {
			code = 1
		}
	}

	// The last line: the final repetition's metrics. With one workload the
	// names are bare, as BENCHMARK.json lists them; with several each is
	// prefixed by its workload.
	last := runs[len(runs)-1]
	final := finalLine{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, res := range last {
		prefix := ""
		if len(last) > 1 {
			prefix = res.workload + "."
		}
		final.Attempted += res.attempted
		final.Failed += res.failed
		if *trace != 1 {
			final.add(prefix, res.endToEnd)
		}
		if *trace != 0 {
			final.add(prefix, res.perLayer)
		}
	}
	final.add("", ledger)
	if final.Failed > 0 {
		final.Correct = false
		code = 1
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: a metric is not a finite number:", err)
		return 1
	}
	if *quick {
		fmt.Println("\nQUICK MODE: the numbers above are a smoke test and are not comparable with any other run.")
	}
	fmt.Printf("%s\n", line)
	if final.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed\n", final.Failed, final.Attempted)
	}
	return code
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (f *finalLine) add(prefix string, ms []metric) {
	for _, m := range ms {
		f.Metrics[prefix+m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
}

// findRoot locates the repository: the directory holding cmd/streamd and a
// go.mod. The benchmark builds the program from source, so outside a
// checkout there is nothing to measure.
func findRoot(flagged string) (string, error) {
	candidates := []string{".", ".."}
	if flagged != "" {
		candidates = []string{flagged}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "cmd", "streamd", "main.go")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(c, "go.mod")); err != nil {
			continue
		}
		return filepath.Abs(c)
	}
	return "", errors.New("no repository here: need go.mod and cmd/streamd/main.go in " + strings.Join(candidates, " or "))
}

// buildStreamd compiles the system under test. The time is reported apart
// from setup_s: it measures the Go build cache, not this program.
func buildStreamd(repo, out string) (bin string, seconds float64, err error) {
	bin = filepath.Join(out, "streamd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/streamd")
	cmd.Dir = repo
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/streamd: %w", err)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// printTestbed prints the fixed testbed block that heads every run.
func printTestbed(quick bool) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	fmt.Printf("testbed: cpu %q, nproc %d, GOMAXPROCS %d, %s, linux %s\n",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
	fmt.Println("load generator and SUT share these cores; multi-core scaling is UNMEASURED on this hardware")
	if quick {
		fmt.Println("QUICK MODE: numbers are not comparable")
	}
}
