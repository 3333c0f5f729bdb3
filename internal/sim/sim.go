// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel in the style of SimPy. The entire BM-Store reproduction
// runs on this kernel: hardware latencies and bandwidths are modelled in
// virtual time, so microsecond-scale device behaviour can be reproduced
// faithfully regardless of host speed.
//
// Concurrency model: simulation processes are runtime coroutines built with
// iter.Pull. The scheduler switches into a process when one of its events
// fires, and the process switches back when it blocks or returns; the
// transfer is direct, on the scheduler's own thread, so exactly one of them
// runs at any moment. Simulation state never needs locking and event
// ordering is fully deterministic: events fire in (time, sequence) order.
//
// Because a process runs as a coroutine of whoever called Run, a process
// that panics re-panics on that caller (as "sim: process %q panicked: ..."),
// and a process that calls runtime.Goexit (t.Fatal, for one) exits the
// caller's goroutine too, after the process's Done event has been marked.
//
// An Env is strictly single-threaded; parallelism in this codebase lives
// *between* environments, never inside one. Independent rigs each own an Env
// and may run on separate OS threads concurrently (see
// internal/experiments's worker pool), which is why the kernel holds no
// package-level mutable state.
package sim

import (
	"fmt"
	"iter"
	"sort"

	"bmstore/internal/fault"
	"bmstore/internal/obs"
	"bmstore/internal/trace"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time = int64

// Convenient duration units for virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, start processes with Go, and drive it with Run or
// RunUntil. An Env must not be shared between operating-system threads other
// than through the process mechanism.
type Env struct {
	now   Time
	queue eventQueue
	seq   uint64

	live map[*Proc]struct{}

	seed    int64
	procSeq uint64
	tracer  *trace.Tracer
	faults  *fault.Injector

	// nEvents counts queue entries fired since the environment was
	// created. It is always maintained (one add per event) so the host
	// driver can report events-per-I/O without a metrics registry.
	nEvents uint64

	// met is the metrics registry; the kernel counters below are cached
	// instrument pointers (nil when metrics are off, making each
	// observation point a single nil check — obs instruments are
	// nil-receiver-safe, the same zero-overhead discipline as the tracer).
	met      *obs.Registry
	cEvents  *obs.Counter
	cSpawns  *obs.Counter
	cResumes *obs.Counter

	// evFree recycles kernel-internal one-shot events (Sleep timers,
	// process-start events). Only events the kernel itself created and that
	// never escape to user code are pooled; see pooledEvent.
	evFree []*Event
}

// NewEnv returns a fresh environment at time 0 with the given base RNG seed.
// The seed feeds the per-name deterministic streams returned by Rand.
func NewEnv(seed int64) *Env {
	return &Env{
		live: make(map[*Proc]struct{}),
		seed: seed,
	}
}

// Events returns the number of queue entries fired so far — the kernel-level
// cost measure behind the driver's events-per-I/O accounting.
func (e *Env) Events() uint64 { return e.nEvents }

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// SetTracer attaches a determinism tracer to the environment. The scheduler
// emits process-spawn, event-fire, resume and abort records into it; model
// components cache the pointer at construction for their own instrumentation
// points, so attach the tracer before building anything on the environment.
// Pass nil to detach.
func (e *Env) SetTracer(tr *trace.Tracer) { e.tracer = tr }

// Tracer returns the attached tracer, or nil when tracing is off.
func (e *Env) Tracer() *trace.Tracer { return e.tracer }

// SetMetrics attaches a metrics registry to the environment. Like the
// tracer, model components cache the pointer (or instruments created from
// it) at construction, so attach the registry before building anything on
// the environment. Metrics are strictly passive — the registry never
// schedules events — so attaching one cannot change simulated behaviour or
// trace digests. Pass nil to detach.
func (e *Env) SetMetrics(m *obs.Registry) {
	e.met = m
	kernel := m.Component("sim") // nil registry -> nil component -> nil counters
	e.cEvents = kernel.Counter("events_fired")
	e.cSpawns = kernel.Counter("procs_spawned")
	e.cResumes = kernel.Counter("proc_resumes")
}

// Metrics returns the attached registry, or nil when metrics are off.
func (e *Env) Metrics() *obs.Registry { return e.met }

// SetFaults attaches a fault injector to the environment. Model components
// cache the pointer at their injection points during construction — the
// same discipline as the tracer and metrics registry — so attach the
// injector before building anything on the environment. A nil injector (the
// default) costs one pointer compare per potential injection point. The
// injector is stateful and belongs to exactly this environment; build a
// fresh one per rig from a shared rule list.
func (e *Env) SetFaults(in *fault.Injector) { e.faults = in }

// Faults returns the attached fault injector, or nil when injection is off.
func (e *Env) Faults() *fault.Injector { return e.faults }

// scheduled is an entry in the event queue. Exactly one of fn and ev is set:
// fn is the Schedule fast path (a bare callback with no Event allocated),
// ev everything else.
type scheduled struct {
	at  Time
	seq uint64
	fn  func()
	ev  *Event
}

// eventQueue is a 4-ary min-heap of scheduled entries ordered by (at, seq).
// It is hand-rolled on the concrete type rather than container/heap: the
// interface-based heap boxes every pushed entry into an `any` (one heap
// allocation per event) and pays dynamic dispatch per comparison, which
// together dominated the scheduler's hot loop. The wider fan-out also
// shallows the tree: a 4-ary heap does ~half the levels of a binary heap on
// sift-down, trading slightly more comparisons per level for far fewer
// swaps — a win for the short-lived entries a simulation queue churns.
type eventQueue struct {
	s []scheduled
}

// before reports whether a fires before b: (time, sequence) order. seq is
// unique per push, so this is a total order and pop order is deterministic.
func (q *eventQueue) before(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(it scheduled) {
	q.s = append(q.s, it)
	i := len(q.s) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !q.before(&q.s[i], &q.s[parent]) {
			break
		}
		q.s[i], q.s[parent] = q.s[parent], q.s[i]
		i = parent
	}
}

func (q *eventQueue) pop() scheduled {
	s := q.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = scheduled{} // release fn/ev references
	q.s = s[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

func (q *eventQueue) siftDown(i int) {
	s := q.s
	n := len(s)
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.before(&s[c], &s[min]) {
				min = c
			}
		}
		if !q.before(&s[min], &s[i]) {
			return
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
}

func (e *Env) push(at Time, ev *Event) {
	e.seq++
	e.queue.push(scheduled{at: at, seq: e.seq, ev: ev})
}

// Schedule runs fn in scheduler context after delay. It is the lightweight,
// callback-style alternative to starting a process; device models use it for
// internal pipeline stages. The callback travels in the queue entry itself —
// no Event is allocated, which makes Schedule the cheapest way to sequence
// virtual-time work.
func (e *Env) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.seq++
	e.queue.push(scheduled{at: e.now + delay, seq: e.seq, fn: fn})
}

// Run processes events until the queue is empty, then returns the final
// virtual time. Processes still blocked on untriggered events remain blocked;
// call Shutdown to unwind them.
func (e *Env) Run() Time { return e.run(-1, nil) }

// RunUntil processes events up to and including virtual time t and then
// returns. The clock is left at t even if the queue drained earlier.
func (e *Env) RunUntil(t Time) Time {
	e.run(t, nil)
	if e.now < t {
		e.now = t
	}
	return e.now
}

// RunUntilEvent processes events until ev has fired (or the queue runs
// dry). Use it to drive a simulation that hosts immortal server processes
// (pollers, monitors) whose periodic timers would keep Run spinning
// forever.
func (e *Env) RunUntilEvent(ev *Event) Time { return e.run(-1, ev) }

// Diagnosis describes why a watched run stopped before its event fired: the
// structured alternative to a hung test. Deadlock means the event queue went
// dry with the workload unfinished — every remaining process is blocked on
// an event nothing will ever trigger. HorizonHit means events were still
// flowing but the workload failed to finish inside the time budget (a
// livelock, or a horizon set too tight).
type Diagnosis struct {
	At         Time // virtual time the watchdog gave up
	HorizonHit bool // true: budget exhausted; false: true deadlock
	Pending    int  // events still queued (0 on a deadlock)
	// Blocked lists the live-but-blocked processes as "id:name", in spawn
	// order — the wait-for picture a deadlocked rig leaves behind.
	Blocked []string
}

// String renders the diagnosis the way a failure report quotes it.
func (d *Diagnosis) String() string {
	kind := "deadlock"
	if d.HorizonHit {
		kind = "horizon"
	}
	return fmt.Sprintf("sim %s at t=%dns: %d events pending, blocked procs %v",
		kind, d.At, d.Pending, d.Blocked)
}

// RunUntilEventWatched is RunUntilEvent with a liveness watchdog: it stops
// as soon as ev fires (returning a nil Diagnosis), the queue drains, or the
// clock passes horizon — the latter two produce a structured Diagnosis
// instead of a hang. The watchdog costs no extra events and is fully
// deterministic: the emitted trace record folds into the digest like any
// other kernel record, so a watched run replays bit-identically.
func (e *Env) RunUntilEventWatched(ev *Event, horizon Time) (Time, *Diagnosis) {
	e.run(horizon, ev)
	if ev.processed {
		return e.now, nil
	}
	d := &Diagnosis{
		At:         e.now,
		HorizonHit: len(e.queue.s) > 0,
		Pending:    len(e.queue.s),
	}
	procs := make([]*Proc, 0, len(e.live))
	for p := range e.live {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	for _, p := range procs {
		d.Blocked = append(d.Blocked, fmt.Sprintf("%d:%s", p.id, p.name))
	}
	if e.tracer != nil {
		kind := "deadlock"
		if d.HorizonHit {
			kind = "horizon"
		}
		e.tracer.Emit(e.now, "sim", kind, uint64(len(d.Blocked)), uint64(d.Pending), "")
	}
	return e.now, d
}

// run is the scheduler hot loop shared by Run, RunUntil and RunUntilEvent:
// pop in (time, seq) order until the queue drains, the next entry lies
// beyond limit (when limit >= 0), or until has fired (when non-nil).
func (e *Env) run(limit Time, until *Event) Time {
	for len(e.queue.s) > 0 {
		if until != nil && until.processed {
			break
		}
		if limit >= 0 && e.queue.s[0].at > limit {
			break
		}
		it := e.queue.pop()
		if it.at < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = it.at
		e.nEvents++
		e.cEvents.Inc()
		if e.tracer != nil {
			e.tracer.Emit(e.now, "sim", "fire", it.seq, 0, "")
		}
		if it.fn != nil {
			it.fn()
		} else {
			e.fire(it.ev)
		}
	}
	return e.now
}

// fire marks ev processed, runs callbacks and resumes waiting processes.
func (e *Env) fire(ev *Event) {
	if ev.processed || ev.aborted {
		return
	}
	ev.processed = true
	ev.pending = false
	cbs := ev.callbacks
	ev.callbacks = nil
	for _, cb := range cbs {
		cb(ev.val)
	}
	ws := ev.waiters
	ev.waiters = nil
	for _, p := range ws {
		if p.done {
			continue
		}
		e.resume(p, resumeMsg{val: ev.val, ev: ev})
	}
	if ev.pooled {
		ev.waiters = ws[:0] // keep the capacity across recycles
		e.recycle(ev)
	}
}

// PooledEvent returns a one-shot event from the environment's free list.
// Contract: the event must be triggered exactly once and no reference to it
// may be kept after it fires — the kernel recycles it at the end of fire,
// after callbacks ran and waiters resumed. An event that is abandoned
// (never triggered, or aborted) simply drops out of the pool; that is safe
// but wastes the recycle. Data-path components use this for their
// per-command completion signalling so steady-state I/O allocates nothing.
func (e *Env) PooledEvent() *Event { return e.pooledEvent() }

// pooledEvent returns a recycled kernel-internal event, or a fresh one. The
// caller must guarantee the event never escapes to user code: it is handed
// back to the free list at the end of fire, after its waiters have resumed
// and moved on.
func (e *Env) pooledEvent() *Event {
	if n := len(e.evFree); n > 0 {
		ev := e.evFree[n-1]
		e.evFree = e.evFree[:n-1]
		return ev
	}
	return &Event{env: e, pooled: true}
}

// recycle resets a pooled event (keeping its waiter-slice capacity) and
// returns it to the free list.
func (e *Env) recycle(ev *Event) {
	ev.val = nil
	ev.pending = false
	ev.processed = false
	ev.aborted = false
	ev.callbacks = nil
	ev.waiters = ev.waiters[:0]
	e.evFree = append(e.evFree, ev)
}

type resumeMsg struct {
	val   any
	ev    *Event
	abort bool
}

// resume switches into process p's coroutine with message m and returns
// when p blocks again or finishes. A panic or runtime.Goexit inside p
// propagates out of this call to the goroutine driving the scheduler.
func (e *Env) resume(p *Proc, m resumeMsg) {
	e.cResumes.Inc()
	if e.tracer != nil && !m.abort {
		e.tracer.Emit(e.now, "sim", "resume", p.id, 0, p.name)
	}
	p.msg = m
	p.next()
}

// Blocked reports how many processes are alive but currently blocked. After
// Run returns, a nonzero value means some processes are waiting on events
// that will never fire (often intentional: server loops).
func (e *Env) Blocked() int { return len(e.live) }

// Shutdown aborts every live process: each blocked process's wait panics
// with an internal sentinel that the process wrapper recovers. Use it in
// tests to release server-style processes: a blocked process's coroutine
// holds a parked goroutine until it finishes. Processes are
// unwound in spawn order, so shutdown — like everything else on the
// environment — is deterministic and safe to include in a trace digest.
func (e *Env) Shutdown() {
	for len(e.live) > 0 {
		procs := make([]*Proc, 0, len(e.live))
		for p := range e.live {
			procs = append(procs, p)
		}
		sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
		for _, p := range procs {
			if _, alive := e.live[p]; !alive {
				continue // unwound as a side effect of an earlier abort
			}
			if e.tracer != nil {
				e.tracer.Emit(e.now, "sim", "abort", p.id, 0, p.name)
			}
			e.resume(p, resumeMsg{abort: true})
		}
	}
}

// Go starts fn as a new simulation process named name. The process begins
// running at the current virtual time, before Go returns to the scheduler...
// precisely: the process is started immediately if called from scheduler
// context, or scheduled for the same timestamp when called from another
// process. Go returns a *Proc handle whose Done event fires when fn returns.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{
		env:    e,
		id:     e.procSeq,
		name:   name,
		doneEv: e.NewEvent(),
	}
	e.live[p] = struct{}{}
	e.cSpawns.Inc()
	if e.tracer != nil {
		e.tracer.Emit(e.now, "sim", "spawn", p.id, 0, name)
	}
	p.next, _ = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		start := p.msg // the first activation
		p.msg = resumeMsg{}
		// Completion runs as a deferred function so that it also happens
		// when fn panics or exits via runtime.Goexit (t.Fatal inside a
		// process): the process is marked done and its Done event
		// triggered before the panic or Goexit propagates out of the
		// scheduler's resume call to the goroutine that called Run.
		defer func() {
			p.done = true
			delete(e.live, p)
			if !start.abort {
				p.doneEv.Trigger(nil)
			}
			p.next, p.suspend = nil, nil // release fn's captures
		}()
		if !start.abort {
			defer func() {
				if r := recover(); r != nil && r != errAborted {
					panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
				}
			}()
			fn(p)
		}
	})
	// Activate via a zero-delay pooled event so start order is deterministic.
	start := e.pooledEvent()
	start.waiters = append(start.waiters, p)
	e.push(e.now, start)
	start.pending = true
	return p
}

var errAborted = fmt.Errorf("sim: process aborted")
