// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the program built from this checkout and prints, as
// the last line of standard output, one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured with tracing off; with -trace 1 they are its per-layer metrics,
// from a separate traced run. Every repetition runs in a fresh child
// process, so no cache or pool of the program carries over from an
// earlier repetition: every timed run is cold. Every repetition checks
// the program's outputs (checks.go).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fleet-cold --seed 1 --seconds 40 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: fleet-cold, sharded-graph or edge-cloud-tcp")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	rep := flag.Bool("rep", false, "run one repetition in this process and print its result (used by the parent run)")
	traced := flag.Bool("traced", false, "with -rep: profile and count the repetition")
	tcpDur := flag.Duration("tcp-duration", 5*time.Second, "with -rep: length of the edge-cloud-tcp open loop")
	flag.Parse()

	if !knownWorkload(*workload) {
		fatalf("unknown workload %q (want one of %v)", *workload, workloads)
	}
	tmp, err := repTmpDir()
	if err != nil {
		fatalf("scratch directory: %v", err)
	}
	if *rep {
		if err := runRep(*workload, *seed, *traced, *tcpDur, tmp); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	res, err := runParent(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, tmp)
	if err != nil {
		fatalf("%v", err)
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	if err := matchSpec(res.Metrics, want); err != nil {
		fatalf("printed metrics do not match BENCHMARK.json: %v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func knownWorkload(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// buildDir is the directory builds and scratch files go to, inside the
// checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Repetition counts. Each sim repetition is a fresh process; at least
// minReps run so the same-seed replay check always has a pair to compare.
const (
	minReps = 3
	tcpReps = 5
	// repTimeout bounds one child process.
	repTimeout = 150 * time.Second
)

// runParent spawns repetitions until the run's time is spent and
// aggregates them.
func runParent(workload string, seed int64, budget time.Duration, traced bool, tmp string) (*result, error) {
	start := time.Now()
	var reps []*repResult
	spawn := func(tracedRep bool, tcpDur time.Duration) error {
		steal0, total0 := cpuTicks()
		r, err := spawnRep(workload, seed, tracedRep, tcpDur, tmp)
		if err != nil {
			return err
		}
		steal1, total1 := cpuTicks()
		r.StealShare = ratio(float64(steal1-steal0), float64(total1-total0))
		reps = append(reps, r)
		return nil
	}
	switch {
	case workload == wEdgeCloudTCP && traced:
		// One untraced and one traced run of the same load: the second
		// gives the profile, the pair the tracing overhead.
		d := budget * 2 / 5
		for _, tr := range []bool{false, true} {
			if err := spawn(tr, d); err != nil {
				return nil, err
			}
		}
	case workload == wEdgeCloudTCP:
		d := budget * 9 / 10 / tcpReps
		for i := 0; i < tcpReps; i++ {
			if err := spawn(false, d); err != nil {
				return nil, err
			}
		}
	default:
		// Alternate untraced and traced repetitions when tracing, so
		// drift on the machine affects both sides of the overhead ratio.
		need := minReps
		if traced {
			need = 2
		}
		var last time.Duration
		for i := 0; i < need || time.Since(start)+last < budget; i++ {
			t0 := time.Now()
			if err := spawn(traced && i%2 == 1, 0); err != nil {
				return nil, err
			}
			last = time.Since(t0)
		}
	}
	var res *result
	if traced {
		res = layerMetrics(workload, reps)
	} else {
		res = endToEndMetrics(workload, reps)
	}
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Attempted - r.Answered
	}
	res.Correct = checkReps(workload, reps)
	return res, nil
}

// checkReps reports every failed output check and, for the simulated
// workloads, checks that every same-seed repetition printed the same
// report. Repetitions are separate processes, so this is the same-seed
// replay check, made without warming any timed run.
//
// A difference in report fields the printed report leaves out is
// reported as a warning, not a failure: per-camera apology counts differ
// by one in a few percent of cold runs (see README.md, "Known program
// nondeterminism").
func checkReps(workload string, reps []*repResult) bool {
	ok := true
	structDiffs := 0
	for i, r := range reps {
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: check failed: %s\n", workload, i, f)
			ok = false
		}
		if workload == wEdgeCloudTCP {
			continue
		}
		if r.Fingerprint != reps[0].Fingerprint {
			fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: printed report %s differs from rep 0's %s on the same seed\n",
				workload, i, r.Fingerprint, reps[0].Fingerprint)
			ok = false
		} else if r.StructFingerprint != reps[0].StructFingerprint {
			structDiffs++
		}
	}
	if structDiffs > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s: %d of %d same-seed repetitions differ from rep 0 in report fields outside the printed report (known program nondeterminism, see perfbench/README.md)\n",
			workload, structDiffs, len(reps)-1)
	}
	return ok
}

// spawnRep runs one repetition in a fresh child process.
func spawnRep(workload string, seed int64, traced bool, tcpDur time.Duration, tmp string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	args := []string{"-rep", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-traced=" + strconv.FormatBool(traced)}
	if tcpDur > 0 {
		args = append(args, "-tcp-duration", tcpDur.String())
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	// The durable fleet's write-ahead logs go to TMPDIR; keep them in
	// the checkout.
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s repetition: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r repResult
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s repetition: bad result: %w", workload, err)
	}
	return &r, nil
}

// endToEndMetrics aggregates untraced repetitions: medians across
// repetitions, and latency percentiles over the pooled TCP samples.
func endToEndMetrics(workload string, reps []*repResult) *result {
	var fps, setup, rss, cpu, initP50, initP99, finP50, finP99 []float64
	var late []float64
	for _, r := range reps {
		fps = append(fps, ratio(float64(r.Answered), r.WallS))
		setup = append(setup, r.SetupS)
		rss = append(rss, float64(r.MaxRSSKB)/1024)
		cpu = append(cpu, 1000*ratio(r.CPUS, float64(r.Answered)))
		initP50, initP99 = append(initP50, r.InitialMs[0]), append(initP99, r.InitialMs[1])
		finP50, finP99 = append(finP50, r.FinalMs[0]), append(finP99, r.FinalMs[1])
		late = append(late, r.LateMs...)
	}
	m := map[string]metric{
		"frames_per_s": {median(fps), "1/s"},
		"setup_s":      {median(setup), "s"},
		// Peak RSS is bimodal across processes (on fleet-cold about 144 or
		// 162 MB, by whether a GC cycle lands before the heap peak), so
		// its median jumps between the modes; the mean does not.
		"peak_rss_mb":      {mean(rss), "MB"},
		"cpu_ms_per_frame": {median(cpu), "ms"},
		"initial_p50_ms":   {median(initP50), "ms"},
		"initial_p99_ms":   {median(initP99), "ms"},
		"final_p50_ms":     {median(finP50), "ms"},
		"final_p99_ms":     {median(finP99), "ms"},
	}

	fmt.Printf("%s: %d cold repetitions (one process each)\n", workload, len(reps))
	for i, r := range reps {
		fmt.Printf("  rep %d: setup %.4fs, timed %.4fs, %d/%d frames answered, %.1f frames/s, %.4f cpu ms/frame, peak RSS %.1f MB, steal %.1f%%\n",
			i, r.SetupS, r.WallS, r.Answered, r.Attempted, fps[i], cpu[i], rss[i], 100*r.StealShare)
		if workload == wEdgeCloudTCP {
			fmt.Printf("         from due time over %d frames (%d beyond p99): initial p50 %.3f / p99 %.3f ms, final p50 %.3f / p99 %.3f ms\n",
				r.Answered, r.Answered/100, initP50[i], initP99[i], finP50[i], finP99[i])
		}
	}
	if workload == wEdgeCloudTCP {
		fmt.Printf("  latency percentiles are the median over repetitions\n")
		fmt.Printf("  generator lateness over %d frames: p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
			len(late), quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1))
	} else {
		fmt.Printf("  latencies are the report's modeled (virtual-clock) fleet percentiles\n")
	}
	printMetrics(m)
	return &result{Metrics: m}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
