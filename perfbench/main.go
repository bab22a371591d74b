// Command perfbench is the repository benchmark. It drives three fixed
// workloads through the public APIs of vmmc, replica and coll on a fresh
// simulation engine per run, with the bottleneck analyzer subscribed as
// the sweeps subscribe it, and measures two clocks: host time (what the
// simulator costs) and virtual time (what the modeled system does).
//
//	perfbench -workload a2a64|kv|allreduce -seed N -seconds S -trace 0|1
//
// It repeats the workload, one run per child process, until S seconds
// have passed and at least three runs are done. It checks every run's
// outputs, requires every run to produce the same virtual-time digest,
// and prints each metric by name and unit. The last line of standard
// output is one JSON object: with -trace 0 it holds the end-to-end
// metrics, with -trace 1 the per-layer metrics of the traced runs, whose
// spans are written under -out. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(s *session, seed uint64) (*result, error)
}

var workloads = []workload{
	{"a2a64", func(s *session, seed uint64) (*result, error) { return runA2A(s, a2aDefault(seed)) }},
	{"kv", func(s *session, seed uint64) (*result, error) { return runKV(s, kvDefault(seed)) }},
	{"allreduce", func(s *session, seed uint64) (*result, error) { return runAllReduce(s, allreduceDefault(seed)) }},
}

const (
	mb = 1 << 20
	// minRuns is the fewest runs of each kind an invocation makes.
	minRuns       = 3
	minTracedRuns = 2
)

func main() {
	var (
		name    = flag.String("workload", "a2a64", "workload: a2a64, kv or allreduce")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "how long to repeat the workload")
		traced  = flag.Int("trace", 0, "1 runs traced runs and reports per-layer metrics")
		outDir  = flag.String("out", "perfbench-out", "directory for the span files of traced runs")
		child   = flag.Bool("child", false, "run the workload once and print its record (internal)")
		spans   = flag.String("spans", "", "with -child and -trace 1, write the run's spans here (internal)")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *child {
		if err := childRun(w, *seed, *traced != 0, *spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		return
	}

	var (
		sum *summary
		err error
	)
	if *traced != 0 {
		sum, err = tracedRuns(w, *seed, *seconds, *outDir)
	} else {
		sum, err = untracedRuns(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, l := range sum.lines {
		fmt.Println(l)
	}
	line, err := json.Marshal(sum.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !sum.out.Correct {
		os.Exit(1)
	}
}

// spawn runs one child and decodes the record it prints last.
func spawn(w *workload, seed uint64, traced bool, spansPath string) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-trace", "1", "-spans", spansPath)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var rec record
	if err := json.Unmarshal(out, &rec); err != nil {
		return nil, fmt.Errorf("run record: %w", err)
	}
	return &rec, nil
}

// runs repeats the workload until the time budget is spent and the
// minimum counts are met. With traced runs asked for it alternates
// untraced and traced runs, so both kinds see the same machine state;
// the first traced run writes its spans to spansPath.
func runs(w *workload, seed uint64, seconds float64, traced bool, spansPath string) (plain, tr []*record, err error) {
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(plain) >= minRuns
		if traced {
			enough = len(plain) >= minTracedRuns && len(tr) >= minTracedRuns
		}
		if enough && time.Since(start).Seconds() >= seconds {
			return plain, tr, nil
		}
		if traced && i%2 == 1 {
			path := ""
			if len(tr) == 0 {
				path = spansPath
			}
			r, err := spawn(w, seed, true, path)
			if err != nil {
				return nil, nil, err
			}
			tr = append(tr, r)
			continue
		}
		r, err := spawn(w, seed, false, "")
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, r)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line the benchmark prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type summary struct {
	lines []string
	out   output
}

func newSummary() *summary { return &summary{out: output{Metrics: map[string]metric{}}} }

func (s *summary) add(name string, v float64, unit, note string) {
	s.out.Metrics[name] = metric{Value: v, Unit: unit}
	s.lines = append(s.lines, fmt.Sprintf("  %-24s %14s %-9s %s", name, strconv.FormatFloat(v, 'g', 8, 64), unit, note))
}

func (s *summary) note(format string, args ...any) {
	s.lines = append(s.lines, fmt.Sprintf(format, args...))
}

// verdict checks every run's outputs and digest and fills the result
// header. A run whose digest differs from the first run's counts all
// its operations as failed.
func (s *summary) verdict(name string, seed uint64, rs []*record) {
	s.out.Correct = true
	for _, r := range rs {
		s.out.Attempted += r.Attempted
		s.out.Failed += r.Failed
		if r.Digest != rs[0].Digest {
			s.out.Failed += r.Attempted - r.Failed
			s.note("  digest drift: %s vs %s", r.Digest, rs[0].Digest)
		}
	}
	if s.out.Failed > 0 {
		s.out.Correct = false
	}
	s.note("perfbench %s seed=%d runs=%d digest=%s", name, seed, len(rs), rs[0].Digest)
}

// perRun lists one host-time value of every run, in run order.
func perRun(rs []*record, f func(*record) float64) string {
	var b strings.Builder
	for i, r := range rs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(f(r), 'f', 4, 64))
	}
	return b.String()
}

func medianOf(rs []*record, f func(*record) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// untracedRuns measures the end-to-end metrics.
func untracedRuns(w *workload, seed uint64, seconds float64) (*summary, error) {
	rs, _, err := runs(w, seed, seconds, false, "")
	if err != nil {
		return nil, err
	}
	sum := newSummary()
	sum.verdict(w.name, seed, rs)
	r := rs[0]
	host := fmt.Sprintf("(host, median of %d runs)", len(rs))
	sum.add("setup_s", medianOf(rs, func(r *record) float64 { return r.SetupS }), "s", host)
	sum.add("run_wall_s", medianOf(rs, func(r *record) float64 { return r.RunS }), "s", host)
	sum.add("alloc_mb", medianOf(rs, func(r *record) float64 { return r.AllocMB }), "MB", host)
	sum.add("peak_heap_mb", medianOf(rs, func(r *record) float64 { return r.PeakHeapMB }), "MB", host)
	sum.add("virt_elapsed_us", r.VirtElapsedUS, "us", "(virtual, measured phase)")
	sum.add("virt_goodput_mb_s", float64(r.PayloadBytes)/r.VirtElapsedUS, "MB/s",
		fmt.Sprintf("(virtual, %d payload bytes)", r.PayloadBytes))
	n := r.LatCount
	sum.add("virt_mean_us", r.LatMeanUS, "us", fmt.Sprintf("(virtual, n=%d)", n))
	tail := tailQuantile(n)
	sum.add("virt_tail_us", r.LatUS[tail], "us",
		fmt.Sprintf("(virtual, p%s, n=%d, %d beyond)", milName(tail), n, beyond(n, tail)))
	for _, q := range []int{500, 990, 999} {
		name := "virt_p" + milName(q) + "_us"
		if b := beyond(n, q); b >= 10 {
			sum.note("  %-24s %14s %-9s (virtual, n=%d, %d beyond)", name,
				strconv.FormatFloat(r.LatUS[q], 'g', 8, 64), "us", n, b)
		} else {
			sum.note("  %-24s %14s %-9s (virtual, n=%d: only %d beyond)", name, "-", "us", n, b)
		}
	}
	sum.add("ok_frac", float64(r.Attempted-r.Failed)/float64(r.Attempted), "fraction",
		fmt.Sprintf("(%d of %d operations)", r.Attempted-r.Failed, r.Attempted))
	sum.note("  %-24s %14s %-9s (%d of %d operations; the failed and attempted fields sum all runs)",
		"fail_frac", strconv.FormatFloat(float64(r.Failed)/float64(r.Attempted), 'g', 8, 64), "fraction",
		r.Failed, r.Attempted)
	if r.KV != "" {
		sum.note("  kv outcomes: %s", r.KV)
	}
	sum.note("  per run: setup_s %s", perRun(rs, func(r *record) float64 { return r.SetupS }))
	sum.note("  per run: run_wall_s %s", perRun(rs, func(r *record) float64 { return r.RunS }))
	return sum, nil
}

// tailQuantile is the higher of p99 and p90 with at least ten of n
// samples beyond it (p50 when neither has). p99.9 is printed but not
// used: with ten samples beyond it, it moves too much from seed to seed.
func tailQuantile(n int) int {
	for _, q := range []int{990, 900} {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 500
}

// beyond counts the samples above the nearest-rank quantile at mil per
// mille.
func beyond(n, mil int) int { return n - (mil*n+999)/1000 }

func milName(mil int) string {
	if mil%10 == 0 {
		return strconv.Itoa(mil / 10)
	}
	return strconv.Itoa(mil)
}

// tracedRuns alternates untraced and traced runs and reports the
// per-layer metrics: counts and modeled figures from a traced run,
// host-time shares from the traced runs' CPU profiles, and the tracing
// overhead as the traced minus the untraced median run time.
func tracedRuns(w *workload, seed uint64, seconds float64, outDir string) (*summary, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	spansPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	plain, traced, err := runs(w, seed, seconds, true, spansPath)
	if err != nil {
		return nil, err
	}
	sum := newSummary()
	sum.verdict(w.name, seed, append(append([]*record{}, plain...), traced...))
	t := traced[0]
	for _, l := range t.Layer {
		sum.add(l.Name, l.Value, l.Unit, l.Note)
	}

	host := fmt.Sprintf("median of %d untraced runs", len(plain))
	sum.add("sim.ns_per_event", medianOf(plain, func(r *record) float64 {
		return r.RunS * 1e9 / float64(r.MeasureEvents)
	}), "ns", "(host, measured phase, "+host+")")
	sum.add("sim.allocs_per_event", medianOf(plain, func(r *record) float64 {
		return float64(r.Mallocs) / float64(r.Events)
	}), "count", "(host, whole run, "+host+")")

	samples := map[string]int64{}
	var total, sinkEvents, sinkNS int64
	var gc, all float64
	for _, r := range traced {
		for l, n := range r.CPUSamples {
			samples[l] += n
			total += n
		}
		gc += r.GCCPU
		all += r.AllCPU
		sinkEvents += r.SinkEvents
		sinkNS += r.SinkNS
	}
	prof := fmt.Sprintf("(host, %d CPU samples over %d traced runs)", total, len(traced))
	var fracSum float64
	for _, l := range cpuLayers {
		f := float64(samples[l]) / float64(max(total, 1))
		fracSum += f
		sum.add(l+".cpu_frac", f, "fraction", prof)
	}
	sum.note("  cpu_frac sums to %.6f over %d layers", fracSum, len(cpuLayers))
	if total == 0 || fracSum < 1-1e-9 || fracSum > 1+1e-9 {
		sum.out.Correct = false
		sum.note("  cpu_frac values do not sum to 1")
	}
	sum.add("go.gc_cpu_frac", gc/max(all, 1e-9), "fraction", "(host, runtime/metrics over traced runs)")
	sum.add("analysis.ns_per_event", float64(sinkNS)/float64(max(sinkEvents, 1)), "ns",
		"(host, timed analyzer sink over traced runs)")

	tracedRun := medianOf(traced, func(r *record) float64 { return r.RunS })
	plainRun := medianOf(plain, func(r *record) float64 { return r.RunS })
	sum.add("trace.overhead_s", tracedRun-plainRun, "s",
		fmt.Sprintf("(host, traced %.4g s minus untraced %.4g s run_wall_s, medians)", tracedRun, plainRun))
	sum.note("  spans: %s (%d phase spans, %d operation spans)", spansPath, t.PhaseSpans, t.OpSpans)
	return sum, nil
}
