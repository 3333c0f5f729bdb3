package main

import (
	"fmt"

	"bmstore"
	"bmstore/internal/apps/kvstore"
	"bmstore/internal/apps/minidb"
	"bmstore/internal/apps/sysbench"
	"bmstore/internal/apps/ycsb"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// workload is one named benchmark input. Every workload is a closed loop:
// each simulated client issues its next request only after the previous one
// completed. A rep runs the workload once on a fresh rig for a fixed
// simulated window, so the simulated results of a rep are a pure function
// of the seed; the benchmark repeats reps until the host-time budget is
// spent.
type workload struct {
	name string
	// window is the simulated length of the measured window of one rep.
	window sim.Time
	// slice is the simulated length of one step the driver takes with
	// Env.RunUntil; slice_ms_* report the host cost of one step.
	slice sim.Time
	// warmup is how many slices at the start of the window are timed as
	// set-up (setup.warmup_s) instead of as window: the clients' process
	// spawns and cold caches make the first slice of a rep about 1.6 times
	// as slow as the rest, which would otherwise decide slice_ms_p99.
	warmup int
	// digestTrace attaches a digest-only determinism tracer, which is how
	// the figures gate and the determinism, chaos, crash and fault jobs run
	// the model (and which switches the data path to the classic chain).
	digestTrace bool
	apps        bool
}

// Slices take about 10 ms of host time each: long enough that one host
// hiccup does not decide a slice, short enough for over a thousand per run.
// The two fio workloads differ in slice length only because the digest
// path costs more per simulated microsecond; nothing after the window
// enters a fio result, so they still share one expectation.
var workloads = []*workload{
	{name: "fio-4k-fused", window: 40 * sim.Millisecond, slice: 800 * sim.Microsecond, warmup: 2},
	{name: "fio-4k-digest", window: 40 * sim.Millisecond, slice: 250 * sim.Microsecond, warmup: 6, digestTrace: true},
	{name: "apps-mixed", window: 400 * sim.Millisecond, slice: sim.Millisecond, warmup: 2, apps: true},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Application sizing: the fast-scale fig14 cell (dataset sizes divided by
// four), with the YCSB and sysbench thread counts of the paper's VMs.
const (
	kvRecords    = 20000 / 4
	kvValueBytes = 400
	kvThreads    = 4
	dbRows       = 50000 / 4
	dbRowBytes   = 190
	dbThreads    = 8
	dbPoolPages  = 256
)

// fioSpec is fio randrw 4 KiB at QD32 x 4 jobs over the whole window; the
// seed salts the job streams.
func fioSpec(seed int64, window sim.Time) fio.Spec {
	return fio.Spec{
		Name: "randrw-4k", Pattern: fio.RandRW, BlockSize: 4 << 10,
		IODepth: 32, NumJobs: 4, Runtime: window, Seed: fmt.Sprint(seed),
	}
}

// Phases of a rep's set-up, in order. The testbed phase runs outside the
// simulation (constructor plus engine bring-up); the namespace, attach and
// load phases run inside it and are timed by the driver between the events
// the body triggers; the warm-up is the workload's first slices.
const (
	phaseTestbed = iota
	phaseNamespace
	phaseAttach
	phaseLoad
	phaseWarmup
	numPhases
)

var phaseNames = [numPhases]string{"setup.testbed_s", "setup.namespace_s", "setup.attach_s", "setup.load_s", "setup.warmup_s"}

// rigOpts selects the observers of one rep.
type rigOpts struct {
	// layers attaches the metrics registry (with sampled request timelines
	// for wait attribution) and the block-device seam that records spans.
	layers bool
	// window overrides the workload's simulated window (tests use short
	// windows); zero keeps the workload's.
	window sim.Time
}

// rig is one freshly built testbed with the workload body started as the
// root simulation process. The body triggers an event at the end of each
// set-up phase and at the end of the measured window, so the driver can time
// the phases and step the window from outside the kernel.
type rig struct {
	w      *workload
	seed   int64
	window sim.Time
	tb     *bmstore.Testbed
	tracer *trace.Tracer
	reg    *obs.Registry
	seam   *seam

	phase   [phaseWarmup]*sim.Event // phaseTestbed unused
	start   *sim.Event              // releases the clients; fired by the load event's callback
	runDone *sim.Event
	body    func(p *sim.Proc) // the workload, run as the root process

	loaded int // app tenants past their dataset load (the barrier count)
	res    simResult
}

// newRig builds the testbed; it does not run the simulation beyond the
// engine bring-up the constructor performs. The caller starts r.body as the
// root process.
func newRig(w *workload, seed int64, o rigOpts) (*rig, error) {
	r := &rig{w: w, seed: seed, window: w.window}
	if o.window > 0 {
		r.window = o.window
	}
	cfg := bmstore.DefaultConfig()
	cfg.Seed = seed
	cfg.CaptureData = w.apps
	var opts []bmstore.Option
	if w.digestTrace {
		r.tracer = trace.NewDigest()
		opts = append(opts, bmstore.WithTrace(r.tracer))
	}
	if o.layers {
		r.reg = obs.New(obs.Options{Timeline: timeline.Config{SampleEvery: 8, MaxSamples: 1 << 16}})
		opts = append(opts, bmstore.WithMetrics(r.reg))
		r.seam = &seam{}
	}
	tb, err := bmstore.NewBMStoreTestbed(cfg, opts...)
	if err != nil {
		return nil, err
	}
	r.tb = tb
	env := tb.Env
	for i := phaseNamespace; i < phaseWarmup; i++ {
		r.phase[i] = env.NewEvent()
	}
	r.start = env.NewEvent()
	r.runDone = env.NewEvent()
	// The clients start one scheduler step after the load event, so the
	// driver regains control between set-up and the measured window.
	r.phase[phaseLoad].AddCallback(func(any) { r.start.Trigger(nil) })
	r.body = r.fioBody
	if w.apps {
		r.body = r.appsBody
	}
	return r, nil
}

// device hands a workload its block device, behind the span seam on layer
// runs.
func (r *rig) device(d host.BlockDevice) host.BlockDevice {
	if r.seam == nil {
		return d
	}
	return &seamDev{dev: d, s: r.seam}
}

// setupFailed records a set-up error; the body then returns, so the driver
// sees the root process finish before the phase it waits for.
func (r *rig) setupFailed(p *sim.Proc, err error) {
	r.res.err = fmt.Errorf("%s set-up at t=%d: %w", r.w.name, p.Now(), err)
}

// endWindow marks the end of the measured window, then sleeps to just past
// the next slice boundary, so post-window verification never lands in a
// measured slice. The sleep is part of the body, so it happens identically
// however the simulation is driven.
func (r *rig) endWindow(p *sim.Proc, windowStart sim.Time) {
	r.res.End = p.Now()
	r.runDone.Trigger(nil)
	el := p.Now() - windowStart
	p.Sleep(r.w.slice - el%r.w.slice + 1)
}

func (r *rig) fioBody(p *sim.Proc) {
	tb := r.tb
	if err := tb.Console.CreateNamespace(p, "vol", 1<<40, []int{0, 1, 2, 3}); err != nil {
		r.setupFailed(p, err)
		return
	}
	if err := tb.Console.Bind(p, "vol", 0); err != nil {
		r.setupFailed(p, err)
		return
	}
	r.phase[phaseNamespace].Trigger(nil)
	drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
	if err != nil {
		r.setupFailed(p, err)
		return
	}
	devs := make([]host.BlockDevice, 4)
	for j := range devs {
		devs[j] = r.device(drv.BlockDev(j))
	}
	r.phase[phaseAttach].Trigger(nil)
	r.phase[phaseLoad].Trigger(nil)
	p.Wait(r.start)
	t0 := p.Now()
	r.res.Fio = fio.Run(p, devs, fioSpec(r.seed, r.window))
	r.endWindow(p, t0)
}

func (r *rig) appsBody(p *sim.Proc) {
	tb := r.tb
	env := tb.Env
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("vm%d", i)
		if err := tb.Console.CreateNamespace(p, name, 256<<30, []int{i}); err != nil {
			r.setupFailed(p, err)
			return
		}
		if err := tb.Console.Bind(p, name, uint8(i)); err != nil {
			r.setupFailed(p, err)
			return
		}
	}
	r.phase[phaseNamespace].Trigger(nil)
	vm := host.KVMGuest()
	devs := make([]host.BlockDevice, 4)
	for i := range devs {
		dcfg := host.DefaultDriverConfig()
		dcfg.VM = &vm
		drv, err := tb.AttachTenant(p, pcie.FuncID(i), dcfg)
		if err != nil {
			r.setupFailed(p, err)
			return
		}
		devs[i] = r.device(drv.BlockDev(0))
	}
	r.phase[phaseAttach].Trigger(nil)

	ycfg := ycsb.DefaultYCSB()
	ycfg.Records, ycfg.ValueBytes, ycfg.Threads, ycfg.Duration = kvRecords, kvValueBytes, kvThreads, r.window
	scfg := sysbench.DefaultConfig()
	scfg.TableSize, scfg.RowBytes, scfg.Threads, scfg.Duration = dbRows, dbRowBytes, dbThreads, r.window

	// barrier counts a tenant past its dataset load; the last one fires the
	// load event, whose callback releases every tenant's clients at once.
	barrier := func() {
		if r.loaded++; r.loaded == 4 {
			r.phase[phaseLoad].Trigger(nil)
		}
	}
	var stores [2]*kvstore.Store
	var dbs [2]*minidb.DB
	var done []*sim.Event
	var loadErr error
	fail := func(err error) {
		if loadErr == nil {
			loadErr = err
		}
	}
	for i := 0; i < 2; i++ {
		i := i
		done = append(done, env.Go(fmt.Sprintf("kv%d", i), func(vp *sim.Proc) {
			s, err := kvstore.Open(vp, env, devs[i], kvstore.DefaultConfig())
			if err == nil {
				err = ycsb.Load(vp, s, ycfg)
			}
			if err != nil {
				fail(err)
				return
			}
			stores[i] = s
			barrier()
			vp.Wait(r.start)
			c := ycfg
			c.Seed = fmt.Sprintf("%d/kv%d", r.seed, i)
			r.res.YCSB[i] = ycsb.Run(vp, env, s, ycsb.WorkloadA(), c)
		}).Done())
	}
	for i := 0; i < 2; i++ {
		i := i
		done = append(done, env.Go(fmt.Sprintf("db%d", i), func(vp *sim.Proc) {
			dbc := minidb.DefaultConfig()
			dbc.PoolPages = dbPoolPages
			db, err := minidb.Open(vp, env, devs[2+i], dbc)
			if err == nil {
				err = sysbench.Load(vp, db, scfg)
			}
			if err != nil {
				fail(err)
				return
			}
			dbs[i] = db
			barrier()
			vp.Wait(r.start)
			c := scfg
			c.Seed = fmt.Sprintf("%d/db%d", r.seed, i)
			r.res.Sysbench[i] = sysbench.Run(vp, env, db, c)
		}).Done())
	}
	// Before the barrier a tenant process only ends by failing its load, so
	// the first of these events decides between the window and an error.
	p.WaitAny(append([]*sim.Event{r.phase[phaseLoad]}, done...)...)
	if loadErr != nil {
		r.setupFailed(p, loadErr)
		return
	}
	p.Wait(r.start)
	t0 := p.Now()
	for _, ev := range done {
		p.Wait(ev)
	}
	r.endWindow(p, t0)
	r.res.verifyApps(p, stores, dbs)
}
