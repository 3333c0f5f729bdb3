package sim

import (
	"testing"

	"bmstore/internal/obs"
)

// BenchmarkSchedulerThroughput measures the raw per-event cost of the
// scheduler's hot loop: Schedule -> queue -> fire, with no processes
// involved. 64 concurrent callback chains keep the event queue deep enough
// that heap reorganisation cost shows up, the way it does under a real
// multi-device simulation. One benchmark op is one fired event.
func BenchmarkSchedulerThroughput(b *testing.B) {
	const chains = 64
	env := NewEnv(1)
	fired := 0
	scheduled := 0
	var tick func()
	tick = func() {
		fired++
		if scheduled < b.N {
			scheduled++
			env.Schedule(100*Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < chains && scheduled < b.N; i++ {
		scheduled++
		env.Schedule(Time(i), tick)
	}
	env.Run()
	b.StopTimer()
	if fired != scheduled {
		b.Fatalf("fired %d of %d scheduled events", fired, scheduled)
	}
}

// BenchmarkSchedulerMetricsOnThroughput is BenchmarkSchedulerThroughput with
// a metrics registry attached: the kernel's counters are plain scalar
// increments cached at SetMetrics time, so enabling observability must keep
// the fire loop allocation-free. Guarded by the same bench-gate baseline.
func BenchmarkSchedulerMetricsOnThroughput(b *testing.B) {
	const chains = 64
	env := NewEnv(1)
	env.SetMetrics(obs.New(obs.Options{}))
	fired := 0
	scheduled := 0
	var tick func()
	tick = func() {
		fired++
		if scheduled < b.N {
			scheduled++
			env.Schedule(100*Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < chains && scheduled < b.N; i++ {
		scheduled++
		env.Schedule(Time(i), tick)
	}
	env.Run()
	b.StopTimer()
	if fired != scheduled {
		b.Fatalf("fired %d of %d scheduled events", fired, scheduled)
	}
	if got := env.Metrics().Component("sim").Counter("events_fired").Value(); got != uint64(fired) {
		b.Fatalf("events_fired counter %d, fired %d", got, fired)
	}
}

// BenchmarkProcessSpawnThroughput measures a process lifecycle: spawn, the
// start event, one run of the function to completion, and the Done event.
// Processes are spawned in batches so the live set stays small, the way
// per-request processes come and go in a rig. One op is one process.
func BenchmarkProcessSpawnThroughput(b *testing.B) {
	const batch = 64
	env := NewEnv(1)
	noop := func(*Proc) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Go("worker", noop)
		if i%batch == batch-1 {
			env.Run()
		}
	}
	env.Run()
	b.StopTimer()
	if n := env.Blocked(); n != 0 {
		b.Fatalf("%d processes still live", n)
	}
}

// BenchmarkProcessSleepThroughput measures the per-event cost when every
// event resumes a blocked process: the coroutine switch into and out of the
// process plus the timeout-event machinery behind Proc.Sleep. One op is one
// completed sleep.
func BenchmarkProcessSleepThroughput(b *testing.B) {
	const procs = 16
	env := NewEnv(1)
	per := b.N / procs
	extra := b.N % procs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < procs; i++ {
		n := per
		if i < extra {
			n++
		}
		env.Go("sleeper", func(p *Proc) {
			for j := 0; j < n; j++ {
				p.Sleep(100 * Nanosecond)
			}
		})
	}
	env.Run()
}
