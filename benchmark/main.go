// Command benchmark is the repository's benchmark: five pre-materialised
// workloads driven through the real stack's public functions, end-to-end
// metrics measured with tracing off, and a traced run of the same
// workloads that yields per-layer numbers from spans and counters
// recorded in this package's own files. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	ios, passes int
	outDir      string
	workDir     string
	jsonPath    string
	cpuProfile  string
	// Test hooks, not flags: setups overrides setupRepeats when positive;
	// corruptOracle points one oracle entry at the wrong payload, and the
	// run must then fail.
	setups        int
	corruptOracle bool
}

const (
	// minPasses is the fewest timed passes a run reports a median over.
	minPasses = 7
	// minPairs is the fewest untraced/traced pass pairs of a traced run.
	minPairs = 3
	// setupRepeats is how often a run repeats its set-up; setup_s is the
	// median. A constant: runs that repeated it differently would not
	// report the same metric.
	setupRepeats = 3
)

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all for the full report (every workload, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; overrides the trace's own seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long one run measures; at least 7 passes (3 pairs when traced) are always made")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints per-layer metrics (single workload only)")
	flag.IntVar(&o.ios, "ios", 0, "requests per pass; 0 keeps each workload's own size")
	flag.IntVar(&o.passes, "passes", 0, "timed passes (pairs when traced); 0 measures for -seconds")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for span files and the full report")
	flag.StringVar(&o.workDir, "work", "benchmark/work", "directory for the durable workload's volume files")
	flag.StringVar(&o.jsonPath, "json", "", "where the full report goes (default <out>/report.json)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the timed passes here")
	flag.BoolVar(&compare, "compare", false, "compare full reports: -compare old1.json,...,old10.json new1.json,...,new10.json (the i-th of each side is a pair; a verdict needs 10 a side)")
	flag.Parse()

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare old.json[,old2.json...] new.json[,new2.json...]")
			break
		}
		var regressed bool
		if regressed, err = compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case o.workload == "all":
		err = runAll(o, os.Stdout)
	default:
		err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runResult is one run of one workload, untraced or traced.
type runResult struct {
	spec              workloadSpec
	ios               int
	passes, traced    int
	attempted, failed int
	notes             []string
	// endToEnd holds per-pass values of the untraced passes.
	endToEnd map[string][]float64
	// layers holds one value per per-layer metric (traced runs).
	layers map[string]float64
}

func (r *runResult) absorb(p *passResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	for _, n := range p.notes {
		if len(r.notes) < 8 {
			r.notes = append(r.notes, n)
		}
	}
}

// runWorkload sets a workload up, then measures it for o.seconds.
func runWorkload(o options, w workloadSpec, traced bool) (*runResult, error) {
	ios := w.IOs
	if o.ios > 0 {
		ios = o.ios
	}
	r := &runResult{spec: w, ios: ios, endToEnd: map[string][]float64{}}
	// Every pass gets a private directory; only the durable workload
	// puts files there.
	passDir := filepath.Join(o.workDir, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(passDir)

	// Set-up: trace generation, payload slab, server (and listener)
	// construction and the warm-up pass. It is repeated so that setup_s
	// is a median; the last repeat's products are the ones measured.
	var st *stream
	var warm *passResult
	setups := setupRepeats
	if o.setups > 0 {
		setups = o.setups
	}
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = materialise(w, ios, o.seed); err != nil {
			return nil, err
		}
		tg, err := newTarget(st, false, passDir)
		if err != nil {
			st.close()
			return nil, err
		}
		warm = runPass(st, tg, true, nil)
		if err := tg.cleanup(); err != nil {
			st.close()
			return nil, err
		}
		r.endToEnd["setup_s"] = append(r.endToEnd["setup_s"], time.Since(t0).Seconds())
	}
	defer st.close()
	r.absorb(warm)
	if o.corruptOracle {
		lba := st.sample[0]
		st.final[lba] = (st.final[lba] + 1) % int32(len(st.slab)/st.chunk)
	}

	began := time.Now()
	var lastTrace *tracer // spans of the latest traced pass, written out when the run ends
	onePass := func(traced bool) (*passResult, map[string]float64, error) {
		tg, err := newTarget(st, traced, passDir)
		if err != nil {
			return nil, nil, err
		}
		p := runPass(st, tg, false, warm)
		var lm map[string]float64
		if traced {
			lm, lastTrace = layerMetrics(st, tg, p), tg.tr
		}
		r.absorb(p)
		return p, lm, tg.cleanup()
	}

	var replay map[string]float64
	if traced {
		var err error
		if replay, err = replayLayers(st); err != nil {
			return nil, err
		}
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	bytes, ops := float64(st.payloadBytes()), float64(len(st.reqs))
	var overhead []float64            // per pair: how much slower the traced pass ran
	var steal []float64               // per untraced pass: share of machine time the hypervisor took
	perPass := map[string][]float64{} // per-layer values, one per traced pass
	need := minPasses
	if traced {
		need = minPairs
	}
	for n := 0; ; n++ {
		if o.passes > 0 {
			if n >= o.passes {
				break
			}
		} else if n >= need && time.Since(began).Seconds() >= o.seconds {
			break
		}
		p, _, err := onePass(false)
		if err != nil {
			return nil, err
		}
		r.passes++
		add := func(name string, v float64) { r.endToEnd[name] = append(r.endToEnd[name], v) }
		add("throughput_mbps", bytes/1e6/p.wall.Seconds())
		add("write_p50_us", percentile(p.writeLat, 0.50)/1e3)
		add("write_p99_us", percentile(p.writeLat, 0.99)/1e3)
		if st.reads > 0 {
			add("read_p50_us", percentile(p.readLat, 0.50)/1e3)
			add("read_p99_us", percentile(p.readLat, 0.99)/1e3)
		}
		add("cpu_ns_per_byte", float64(p.cpu)/bytes)
		add("alloc_bytes_per_byte", float64(p.allocBytes)/bytes)
		add("allocs_per_op", float64(p.mallocs)/ops)
		add("reduction_ratio", ratio(p.stats.StoredBytes, p.stats.LogicalWriteBytes))
		// One tick is 10 ms (USER_HZ) of one CPU.
		steal = append(steal, float64(p.stealTicks)*0.01/(p.wall.Seconds()*float64(runtime.NumCPU()))*100)
		if !traced {
			continue
		}
		tp, lm, err := onePass(true)
		if err != nil {
			return nil, err
		}
		r.traced++
		overhead = append(overhead, (tp.wall.Seconds()/p.wall.Seconds()-1)*100)
		for k, v := range lm {
			perPass[k] = append(perPass[k], v)
		}
	}

	if w.Durable {
		d, err := checkDurability(st, passDir)
		if err != nil {
			return nil, err
		}
		r.attempted += d.attempted
		r.failed += d.failed
		r.notes = append(r.notes, d.notes...)
		if traced {
			perPass["core.recovery_ms"] = []float64{float64(d.recovery) / 1e6}
		}
	}
	if !traced {
		return r, nil
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := lastTrace.writeSpans(filepath.Join(o.outDir, "trace-"+w.Name+".jsonl")); err != nil {
		return nil, err
	}
	r.layers = replay
	for k, v := range perPass {
		r.layers[k] = summarise(v).Median
	}
	un := summarise(r.endToEnd["throughput_mbps"])
	r.layers["bench.trace_overhead_pct"] = summarise(overhead).Median
	r.layers["bench.pass_spread_pct"] = un.spread() * 100
	r.layers["bench.steal_pct"] = summarise(steal).Median
	// Measured ns per request over the roofline: the share of end-to-end
	// time the layer costs do not explain, as a number of its own.
	r.layers["roofline.glue_ratio"] = bytes / (un.Median * 1e6) * 1e9 / ops / r.layers["roofline.ns_per_op"]
	for _, c := range []struct{ layer, e2e string }{
		{"client.write_p50_us", "write_p50_us"}, {"client.read_p50_us", "read_p50_us"}, {"client.read_p99_us", "read_p99_us"}} {
		r.layers[c.layer] = summarise(r.endToEnd[c.e2e]).Median
	}
	for _, d := range perLayer {
		if !d.appliesTo(w.Name) {
			delete(r.layers, d.Name)
		}
	}
	return r, nil
}

// runOne is the driver's entry: one workload, untraced or traced, and as
// the last line of standard output one JSON object with the result.
func runOne(o options, out io.Writer) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	env := stampEnv(o)
	printHeader(out, env)
	r, err := runWorkload(o, w, o.trace == 1)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if o.trace == 1 {
		// The driver wants every per-layer metric on every workload: a
		// layer the workload bypasses reports 0 work here (and is left
		// out of the full report instead).
		for _, d := range driverPerLayer() {
			metrics[d.Name] = value{r.layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			if d.Driver {
				metrics[d.Name] = value{summarise(r.endToEnd[d.Name]).Median, d.Unit}
			}
		}
	}
	printWorkload(out, mergeRuns(r))
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed or returned wrong bytes", w.Name, r.failed, r.attempted)
	}
	return nil
}

// report is the full, committed form of a set of runs.
type report struct {
	Schema    string           `json:"schema"`
	Env       envStamp         `json:"env"`
	EndToEnd  []metricDef      `json:"end_to_end"`
	PerLayer  []metricDef      `json:"per_layer"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name         string             `json:"name"`
	Why          string             `json:"why"`
	Trace        string             `json:"trace"`
	IOs          int                `json:"ios_per_pass"`
	Clients      int                `json:"clients"`
	Passes       int                `json:"passes"`
	TracedPasses int                `json:"traced_passes"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Notes        []string           `json:"notes,omitempty"`
	EndToEnd     map[string]summary `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer"`
}

const reportSchema = "fidr-benchmark/1"

// mergeRuns folds the runs of one workload into its report: end-to-end
// values come from the first run's untraced passes, per-layer values from
// the traced run, and every run's operations count.
func mergeRuns(runs ...*runResult) workloadReport {
	first := runs[0]
	w := first.spec
	wr := workloadReport{Name: w.Name, Why: w.Why, Trace: w.Trace, IOs: first.ios, Clients: w.Clients,
		Passes: first.passes, EndToEnd: map[string]summary{}}
	for _, r := range runs {
		wr.TracedPasses += r.traced
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		wr.Notes = append(wr.Notes, r.notes...)
		if r.layers != nil {
			wr.PerLayer = r.layers
		}
	}
	for _, d := range endToEnd {
		if d.appliesTo(w.Name) {
			wr.EndToEnd[d.Name] = summarise(first.endToEnd[d.Name])
		}
	}
	wr.EndToEnd["failed_ops_share"] = summarise([]float64{float64(wr.Failed) / float64(wr.Attempted)})
	return wr
}

// runAll runs every workload untraced and then traced, prints every
// metric by name with its unit, and writes the full report.
func runAll(o options, out io.Writer) error {
	rep := report{Schema: reportSchema, Env: stampEnv(o), EndToEnd: endToEnd, PerLayer: perLayer}
	printHeader(out, rep.Env)
	failed := 0
	for _, w := range workloads {
		plain, err := runWorkload(o, w, false)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		traced, err := runWorkload(o, w, true)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		wr := mergeRuns(plain, traced)
		printWorkload(out, wr)
		rep.Workloads = append(rep.Workloads, wr)
		failed += wr.Failed
	}
	path := o.jsonPath
	if path == "" {
		path = filepath.Join(o.outDir, "report.json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfull report: %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed or returned wrong bytes", failed)
	}
	return nil
}

func printHeader(w io.Writer, e envStamp) {
	fmt.Fprintf(w, "fidr benchmark  commit %s  %s  %s/%s  kernel %s\n", e.Commit, e.GoVersion, e.GOOS, e.GOARCH, e.Kernel)
	fmt.Fprintf(w, "cpu %q  nproc %d  GOMAXPROCS %d (pinned)  hash lanes %d  compress lanes %d\n",
		e.CPUModel, e.NumCPU, e.GOMAXPROCS, e.HashLanes, e.CompressLanes)
	fmt.Fprintf(w, "seed %d  work dir %s on %s  load: closed loop, queue depth 1 per client\n", e.Seed, e.WorkDir, e.WorkDirFS)
}

func kindOf(defs []metricDef, name string) (unit, kind string) {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit, d.Kind
		}
	}
	return "", ""
}

func printLayers(w io.Writer, layers map[string]float64) {
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		unit, kind := kindOf(perLayer, k)
		fmt.Fprintf(w, "  %-42s %14.6g %-6s %s\n", k, layers[k], unit, kind)
	}
}

func printEndToEnd(w io.Writer, name string, s summary) {
	unit, kind := kindOf(endToEnd, name)
	fmt.Fprintf(w, "  %-22s median %12.6g  q1 %12.6g  q3 %12.6g  n %2d  %-5s %s\n", name, s.Median, s.Q1, s.Q3, s.N, unit, kind)
}

func printWorkload(w io.Writer, wr workloadReport) {
	fmt.Fprintf(w, "\n%s (%s, %d IOs/pass, %d clients): %d passes, %d traced; attempted %d, failed %d\n  why: %s\n",
		wr.Name, wr.Trace, wr.IOs, wr.Clients, wr.Passes, wr.TracedPasses, wr.Attempted, wr.Failed, wr.Why)
	for _, n := range wr.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
	for _, d := range endToEnd {
		if s, ok := wr.EndToEnd[d.Name]; ok {
			printEndToEnd(w, d.Name, s)
		}
	}
	printLayers(w, wr.PerLayer)
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}
