package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
)

// minSetups is the fewest set-ups a run times; setup_s is their median.
const minSetups = 5

type repMode int

const (
	repSetupOnly repMode = iota // build and set up, no window: extra setup_s samples
	repMeasured                 // observers off
	repLayers                   // metrics, timelines, the span seam and a CPU profile
)

// repStats is what one rep measured.
type repStats struct {
	mode      repMode
	setup     [numPhases]float64 // host seconds per phase
	runS      float64            // host seconds of the measured window
	slices    []float64          // host ms per simulated slice
	peakHeap  float64            // bytes
	digest    string
	attempted uint64
	failed    uint64
	layers    *layerSample
}

func (s *repStats) setupS() float64 {
	var t float64
	for _, v := range s.setup {
		t += v
	}
	return t
}

// driver runs one workload and seed: reps until the host-time budget of
// measured windows is spent, then set-ups until there are minSetups.
type driver struct {
	w      *workload
	seed   int64
	budget time.Duration
	traced bool
	out    string
	clock  *runClock
	window sim.Time // overrides the workload's window when nonzero

	spans []span
	reps  int
	// calib holds the calibration loop times of the run; lastRun is the
	// previous window's host seconds, which sizes the next calibration.
	calib   []float64
	lastRun float64
}

// rep builds a fresh rig, times its set-up phases, then steps the measured
// window in fixed simulated slices with Env.RunUntil.
func (d *driver) rep(mode repMode) (*repStats, error) {
	runtime.GC() // the previous rep's rig is garbage; keep it out of this rep
	st := &repStats{mode: mode}
	d.reps++
	repNo := d.reps
	t0 := d.clock.now()
	r, err := newRig(d.w, d.seed, rigOpts{layers: mode == repLayers, window: d.window})
	if err != nil {
		return nil, fmt.Errorf("%s: testbed: %w", d.w.name, err)
	}
	env := r.tb.Env
	root := r.tb.Go("main", r.body)
	defer env.Shutdown()
	mark := func(ph int, start int64) int64 {
		now := d.clock.now()
		st.setup[ph] = float64(now-start) / 1e9
		d.spans = append(d.spans, span{name: phaseNames[ph], rep: repNo, start: start, end: now})
		return now
	}
	prev := mark(phaseTestbed, t0)
	for ph := phaseNamespace; ph < phaseWarmup; ph++ {
		env.RunUntilEvent(r.phase[ph])
		if !r.phase[ph].Processed() {
			return nil, r.failure(fmt.Sprintf("stalled before the end of %s", phaseNames[ph]))
		}
		prev = mark(ph, prev)
	}
	if r.seam != nil {
		r.seam.clock = d.clock
		r.seam.counting = true
	}
	env.RunUntil(env.Now() + sim.Time(d.w.warmup)*d.w.slice)
	mark(phaseWarmup, prev)
	if mode == repSetupOnly {
		return st, nil
	}

	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	liveHeap := func() {
		metrics.Read(heap)
		st.peakHeap = math.Max(st.peakHeap, float64(heap[0].Value.Uint64()))
	}
	// Calibrate right before the window, with the rig set up and collected,
	// so the loop runs in the window's conditions: without the collection,
	// the loop's allocations would start the one set-up left pending.
	runtime.GC()
	d.calib = append(d.calib, calibrateFor(calibShare*d.lastRun)...)
	// The live-heap metric changes only when a collection ends: collect
	// before and after the window so the peak covers the rig, and so every
	// window starts from a settled heap.
	runtime.GC()
	liveHeap()
	var ls *layerSample
	var prof bytes.Buffer
	if mode == repLayers {
		ls = &layerSample{}
		ls.begin(r)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	vStart := env.Now()
	limit := vStart + 4*r.window + sim.Second
	ws := d.clock.now()
	if r.seam != nil {
		r.seam.open(repNo, ws)
	}
	for !r.runDone.Processed() {
		s := d.clock.now()
		env.RunUntil(env.Now() + d.w.slice)
		st.slices = append(st.slices, float64(d.clock.now()-s)/1e6)
		liveHeap()
		if env.Now() > limit {
			if mode == repLayers {
				pprof.StopCPUProfile()
			}
			return nil, r.failure(fmt.Sprintf("window still open at t=%d", env.Now()))
		}
	}
	we := d.clock.now()
	st.runS = float64(we-ws) / 1e9
	d.lastRun = st.runS
	d.spans = append(d.spans, span{name: "window", rep: repNo, start: ws, end: we})
	if mode == repLayers {
		r.seam.close(we)
		pprof.StopCPUProfile()
		if err := ls.end(r, vStart, prof.Bytes()); err != nil {
			return nil, err
		}
		st.layers = ls
		d.spans = append(d.spans, r.seam.spans...)
	}
	runtime.GC()
	liveHeap()

	env.RunUntilEvent(root.Done())
	if !root.Done().Processed() {
		return nil, r.failure("verification stalled")
	}
	if r.res.err != nil {
		return nil, r.res.err
	}
	if !d.w.apps {
		if err := r.res.verifyFio(); err != nil {
			return nil, err
		}
	}
	st.digest = r.res.digest()
	st.attempted, st.failed = r.res.ops()
	if st.layers != nil {
		st.layers.appOps = st.attempted
	}
	return st, nil
}

// failure explains a rep that stopped early: the body's own error if it
// recorded one, else what the driver saw.
func (r *rig) failure(what string) error {
	if r.res.err != nil {
		return r.res.err
	}
	return fmt.Errorf("%s seed %d: %s", r.w.name, r.seed, what)
}

// crossCheckWindow is the simulated window of crossCheck's two reps.
const crossCheckWindow = 10 * sim.Millisecond

// crossCheck runs the fused and the digest-traced workload on a short
// window and requires identical simulated results: on a seed the oracle
// does not cover, this is the check that the two data paths agree.
func (d *driver) crossCheck() error {
	var digests []string
	for _, name := range []string{"fio-4k-fused", "fio-4k-digest"} {
		w, _ := workloadByName(name)
		c := &driver{w: w, seed: d.seed, clock: d.clock, window: crossCheckWindow}
		st, err := c.rep(repMeasured)
		if err != nil {
			return err
		}
		digests = append(digests, st.digest)
	}
	if digests[0] != digests[1] {
		return fmt.Errorf("fused and digest-traced paths disagree on seed %d: %s vs %s", d.seed, digests[0], digests[1])
	}
	return nil
}

func (d *driver) run() (*report, error) {
	orc, err := loadOracle()
	if err != nil {
		return nil, err
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%.0f trace=%v gomaxprocs=%d %s\n",
		d.w.name, d.seed, d.budget.Seconds(), d.traced, runtime.GOMAXPROCS(0), runtime.Version())
	want, known := orc.expect(d.w, d.seed)
	switch {
	case known:
		fmt.Printf("oracle: seed %d has a committed %s digest %.16s (held-out seed: %d)\n", d.seed, d.w.family(), want, orc.HeldOut)
	case d.w.apps:
		fmt.Printf("oracle: seed %d not committed; checking reps agree and the final rows and keys\n", d.seed)
	default:
		fmt.Printf("oracle: seed %d not committed; checking reps agree and fused == digest-traced on a short window\n", d.seed)
		if err := d.crossCheck(); err != nil {
			return nil, err
		}
	}

	rep := &report{Correct: true, Metrics: map[string]metric{}}
	var reps []*repStats
	var measured float64
	for i := 0; measured < d.budget.Seconds() || (d.traced && i < 2); i++ {
		mode := repMeasured
		if d.traced && i%2 == 1 {
			mode = repLayers
		}
		st, err := d.rep(mode)
		if err != nil {
			return nil, err
		}
		if want == "" {
			want = st.digest
		}
		ok := st.digest == want && st.failed == 0
		fmt.Printf("rep %d (%s): setup %.4fs run %.4fs slices %d digest %.16s %s\n",
			i+1, modeName(mode), st.setupS(), st.runS, len(st.slices), st.digest, verdict(ok))
		rep.Attempted += st.attempted
		if !ok {
			rep.Correct = false
			rep.Failed += st.attempted
		}
		measured += st.runS
		reps = append(reps, st)
	}
	setups := make([]float64, 0, len(reps))
	for _, st := range reps {
		setups = append(setups, st.setupS())
	}
	for len(setups) < minSetups {
		st, err := d.rep(repSetupOnly)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st.setupS())
	}
	fmt.Printf("fail_ratio %g (%d of %d operations failed)\n", float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	speed := calibRefSeconds / median(d.calib)
	fmt.Printf("calibration: median %.6fs over %d loops; setup_s, run_s and slice_ms_p50 below are measured x %.4f, raw in brackets\n", median(d.calib), len(d.calib), speed)

	put := func(name, unit string, v float64, note string) {
		rep.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("%-28s %14.6f %-6s %s\n", name, v, unit, note)
	}
	if !d.traced {
		plain := filterReps(reps, repMeasured)
		timed := func(name, unit string, raw float64, note string) {
			put(name, unit, raw*speed, fmt.Sprintf("[%.6f] %s", raw, note))
		}
		timed("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
		timed("run_s", "s", median(field(plain, func(s *repStats) float64 { return s.runS })), fmt.Sprintf("median of %d windows", len(plain)))
		var slices []float64
		for _, st := range plain {
			slices = append(slices, st.slices...)
		}
		sort.Float64s(slices)
		p99, pct, beyond := tailPercentile(slices, 99)
		timed("slice_ms_p50", "ms", quantile(slices, 0.5), fmt.Sprintf("%d slices of %d ns simulated", len(slices), d.w.slice))
		// The tail is host hiccups and collections, which do not scale with
		// the drift the calibration loop measures: p99 is reported raw.
		put("slice_ms_p99", "ms", p99, fmt.Sprintf("raw, p%d: %d slices beyond", pct, beyond))
		put("peak_heap_mb", "MB", median(field(plain, func(s *repStats) float64 { return s.peakHeap }))/1e6, "median over windows of the peak live heap after GC")
		return rep, nil
	}

	plain, layered := filterReps(reps, repMeasured), filterReps(reps, repLayers)
	untracedRun := median(field(plain, func(s *repStats) float64 { return s.runS }))
	tracedRun := median(field(layered, func(s *repStats) float64 { return s.runS }))
	for ph, name := range phaseNames {
		ph := ph
		put(name, "s", median(field(reps, func(s *repStats) float64 { return s.setup[ph] })), fmt.Sprintf("median of %d reps", len(reps)))
	}
	var agg layerSample
	for _, st := range layered {
		agg.add(st.layers)
	}
	for _, m := range agg.metrics(len(layered)) {
		put(m.name, m.unit, m.value, m.note)
	}
	put("tracing.untraced_run_s", "s", untracedRun, fmt.Sprintf("median of %d untraced windows", len(plain)))
	put("tracing.traced_run_s", "s", tracedRun, fmt.Sprintf("median of %d traced windows", len(layered)))
	put("tracing.overhead_ratio", "ratio", tracedRun/untracedRun, "traced run_s / untraced run_s")
	if err := d.writeSpans(); err != nil {
		return nil, err
	}
	return rep, nil
}

// writeSpans writes the spans kept in memory during the run.
func (d *driver) writeSpans() error {
	dir := filepath.Join(d.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", d.w.name, d.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name,rep,start_ns,end_ns,bytes,write")
	for _, s := range d.spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%v\n", s.name, s.rep, s.start, s.end, s.bytes, s.write)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(d.spans), path)
	return nil
}

func modeName(m repMode) string {
	return [...]string{"setup", "untraced", "traced"}[m]
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "MISMATCH"
}

func filterReps(reps []*repStats, mode repMode) []*repStats {
	var out []*repStats
	for _, st := range reps {
		if st.mode == mode {
			out = append(out, st)
		}
	}
	return out
}

func field(reps []*repStats, f func(*repStats) float64) []float64 {
	out := make([]float64, len(reps))
	for i, st := range reps {
		out[i] = f(st)
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly in sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// tailPercentile returns the pct-th percentile, or the highest lower whole
// percentile (down to the median) that leaves at least ten samples beyond
// it, with that percentile and the number of samples beyond it.
func tailPercentile(sorted []float64, pct int) (float64, int, int) {
	beyond := func(p int) int { return len(sorted) - int(math.Ceil(float64(p)/100*float64(len(sorted)))) }
	for pct > 50 && beyond(pct) < 10 {
		pct--
	}
	return quantile(sorted, float64(pct)/100), pct, beyond(pct)
}

// layerSample is what one traced rep measured layer by layer over its
// window: kernel and model counters, wait attribution, runtime statistics,
// the seam's self-time split and the CPU profile.
type layerSample struct {
	ios, devBytes, appOps uint64
	appsNS, storeNS       int64

	counters  map[string]float64
	waits     [timeline.NumWaits]float64 // ns summed over sampled requests
	waitN     float64
	rt        map[string]float64
	prof      map[string]float64
	traceEvts float64

	startCtr map[string]float64
	startRT  map[string]float64
	startTr  uint64
}

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() map[string]float64 {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := map[string]float64{}
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		}
	}
	return out
}

// modelCounters sums the registry's counters into the benchmark's names.
func modelCounters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, c := range reg.Snapshot().Components {
		for _, ctr := range c.Counters {
			v := float64(ctr.Value)
			switch {
			case c.Name == "sim":
				out["sim."+map[string]string{"events_fired": "events", "procs_spawned": "spawns", "proc_resumes": "resumes"}[ctr.Name]] += v
			case strings.HasPrefix(c.Name, "host/driver"):
				out["host."+ctr.Name] += v
			case c.Name == "engine/frontend" && ctr.Name == "io_dispatched":
				out["engine.dispatched"] += v
			case strings.HasPrefix(c.Name, "engine/ns/") && ctr.Name == "qos_parked":
				out["engine.qos_parked"] += v
			case strings.HasPrefix(c.Name, "ssd/") && strings.HasSuffix(ctr.Name, "_bytes"):
				out["ssd.bytes"] += v
			case strings.HasPrefix(c.Name, "pcie/link") && strings.HasSuffix(ctr.Name, "_bytes"):
				out["pcie.bytes"] += v
			}
		}
	}
	return out
}

func traceEvents(r *rig) uint64 {
	if r.tracer == nil {
		return 0
	}
	return r.tracer.Events()
}

func (l *layerSample) begin(r *rig) {
	l.startCtr = modelCounters(r.reg)
	l.startRT = readRuntime()
	l.startTr = traceEvents(r)
}

func (l *layerSample) end(r *rig, vStart sim.Time, prof []byte) error {
	ctr := modelCounters(r.reg)
	l.counters = map[string]float64{}
	for k, v := range ctr {
		l.counters[k] = v - l.startCtr[k]
	}
	rt := readRuntime()
	l.rt = map[string]float64{}
	for k, v := range rt {
		l.rt[k] = v - l.startRT[k]
	}
	l.traceEvts = float64(traceEvents(r) - l.startTr)
	for _, rec := range r.reg.Timeline().Dump(r.w.name).Samples {
		if rec.TS[timeline.PtStart] < vStart || rec.TS[timeline.PtStart] > r.res.End {
			continue
		}
		for w := range l.waits {
			l.waits[w] += float64(rec.Waits[w])
		}
		l.waitN++
	}
	s := r.seam
	l.ios, l.devBytes, l.appsNS, l.storeNS = s.ios, s.opBytes, s.appsNS, s.storeNS
	var err error
	l.prof, err = profileSeconds(prof)
	return err
}

// add folds another rep's sample into l.
func (l *layerSample) add(o *layerSample) {
	if l.counters == nil {
		l.counters, l.rt, l.prof = map[string]float64{}, map[string]float64{}, map[string]float64{}
	}
	l.ios += o.ios
	l.devBytes += o.devBytes
	l.appOps += o.appOps
	l.appsNS += o.appsNS
	l.storeNS += o.storeNS
	for k, v := range o.counters {
		l.counters[k] += v
	}
	for k, v := range o.rt {
		l.rt[k] += v
	}
	for k, v := range o.prof {
		l.prof[k] += v
	}
	for w := range l.waits {
		l.waits[w] += o.waits[w]
	}
	l.waitN += o.waitN
	l.traceEvts += o.traceEvts
}

type namedValue struct {
	name, unit string
	value      float64
	note       string
}

// metrics renders the aggregate of n traced reps: counts per I/O through
// the seam, seconds per rep, waits per sampled request.
func (l *layerSample) metrics(n int) []namedValue {
	ios := float64(max(l.ios, 1))
	reps := float64(max(n, 1))
	perIO := fmt.Sprintf("over %d I/Os", l.ios)
	perRep := fmt.Sprintf("mean of %d traced windows", n)
	var out []namedValue
	add := func(name, unit string, v float64, note string) {
		out = append(out, namedValue{name, unit, v, note})
	}
	add("apps.self_s", "s", float64(l.appsNS)/1e9/reps, perRep+", above the block-device seam")
	add("storage.self_s", "s", float64(l.storeNS)/1e9/reps, perRep+", below the block-device seam")
	add("blockdev.ios", "count", float64(l.ios)/reps, perRep)
	for _, c := range []string{"sim.events", "sim.resumes", "sim.spawns", "host.doorbells", "host.block_splits", "engine.dispatched"} {
		add(c+"_per_io", "count", l.counters[c]/ios, perIO)
	}
	for _, c := range []string{"host.retries", "host.timeouts", "engine.qos_parked"} {
		add(c, "count", l.counters[c]/reps, perRep)
	}
	add("ssd.bytes_per_io", "B", l.counters["ssd.bytes"]/ios, perIO)
	add("pcie.bytes_per_io", "B", l.counters["pcie.bytes"]/ios, perIO)
	add("trace.events_per_io", "count", l.traceEvts/ios, perIO)
	add("apps.dev_bytes_per_op", "B", float64(l.devBytes)/float64(max(l.appOps, 1)), fmt.Sprintf("over %d application operations", l.appOps))
	for w := timeline.Wait(0); w < timeline.NumWaits; w++ {
		name := "wait." + strings.ReplaceAll(w.String(), "-", "_") + "_us"
		add(name, "us", l.waits[w]/math.Max(l.waitN, 1)/1e3, fmt.Sprintf("simulated, mean over %.0f sampled requests", l.waitN))
	}
	add("runtime.allocs_per_io", "count", l.rt["/gc/heap/allocs:objects"]/ios, perIO)
	add("runtime.alloc_bytes_per_io", "B", l.rt["/gc/heap/allocs:bytes"]/ios, perIO)
	add("runtime.gc_cpu_s", "s", l.rt["/cpu/classes/gc/total:cpu-seconds"]/reps, perRep)
	var profTotal float64
	for _, v := range l.prof {
		profTotal += v
	}
	prof := fmt.Sprintf("%s, CPU profile flat samples (%.2fs sampled in all)", perRep, profTotal/reps)
	for _, layer := range profileLayers {
		add(layer+".self_s", "s", l.prof[layer]/reps, prof)
	}
	add("other.self_s", "s", l.prof["other"]/reps, prof)
	for _, b := range []string{rtHandoff, rtMemmove, rtGC, rtOther} {
		add(b+"_s", "s", l.prof[b]/reps, prof)
	}
	return out
}
