package bmstore

import (
	"testing"

	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// benchIOPath prices one 4 KiB I/O end to end through the data path — host
// driver → BMS-Engine → SSD and back — at queue depth 8 with a 3:1
// read:write mix, on a rig built with opts. One benchmark op is one I/O.
//
// The steady state must stay at 0 allocs/op (pinned by make bench-gate):
// every carrier on the path — kernel events, MMIO/IRQ messages, engine and
// SSD command records, PRP segment lists, completion carriers — comes from
// a per-env free list, and with CaptureData off no payload bytes are
// materialised. The warm-up batch runs at the measured depth so the timed
// region starts with every pool primed, every ring page touched, and the
// queues already wrapped.
func benchIOPath(b *testing.B, serialPrefix string, opts ...Option) *Testbed {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.NumSSDs = 2
	cfg.Engine.ChunkBytes = 1 << 24
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510(serialPrefix + string(rune('A'+i)))
		c.CapacityBytes = 1 << 30
		return c
	}
	tb, err := NewBMStoreTestbed(cfg, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	tb.Run(func(p *sim.Proc) {
		if err := tb.Console.CreateNamespace(p, "vol", 64<<20, []int{0, 1}); err != nil {
			panic(err)
		}
		if err := tb.Console.Bind(p, "vol", 0); err != nil {
			panic(err)
		}
		drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
		if err != nil {
			panic(err)
		}
		env := p.Env()
		dev := drv.BlockDev(0)
		const qd = 8
		var claimed, target, active int
		var batch *sim.Event
		worker := func(wp *sim.Proc) {
			for claimed < target {
				i := claimed
				claimed++
				lba := uint64(i&1023) * 8
				var err error
				if i&3 == 3 {
					err = dev.WriteAt(wp, lba, 1, nil)
				} else {
					err = dev.ReadAt(wp, lba, 1, nil)
				}
				if err != nil {
					panic(err)
				}
			}
			if active--; active == 0 {
				batch.Trigger(nil)
			}
		}
		drain := func(n int) {
			target = claimed + n
			active = qd
			batch = env.NewEvent()
			for w := 0; w < qd; w++ {
				env.Go("bench/ioworker", worker)
			}
			p.Wait(batch)
		}
		drain(4096)
		b.ResetTimer()
		drain(b.N)
		b.StopTimer()
	})
	return tb
}

// BenchmarkIOPathThroughput is the data path with no observer attached.
func BenchmarkIOPathThroughput(b *testing.B) { benchIOPath(b, "BN") }

// BenchmarkIOPathDigestTraced is the data path as the determinism, fault,
// chaos and crash gates and the figures gate run it: with a digest-only
// tracer attached, folding every kernel and model record into the digest.
func BenchmarkIOPathDigestTraced(b *testing.B) {
	tr := trace.NewDigest()
	benchIOPath(b, "BN", WithTrace(tr))
	if tr.Events() == 0 {
		b.Fatal("tracer observed no events")
	}
}

// BenchmarkIOPathSampledTimeline is the data path with always-on telemetry
// attached: a metrics registry recording 1-in-64 sampled request timelines
// plus worst-16 tail forensics. It stays at 0 allocs/op even though every
// request carries a timeline: carriers are pooled and bound once per span,
// unsampled requests return theirs at finish, and a sampled request's
// retention amortises below Go's floor(total/N) allocs reporting. The
// warm-up also fills the worst-K heap, so timed-region retention is the
// 1-in-64 sample stream alone. This is the allocation half of the always-on
// telemetry contract — sampling must be cheap enough to leave on in
// production runs.
func BenchmarkIOPathSampledTimeline(b *testing.B) {
	met := obs.New(obs.Options{
		SeriesInterval: obs.DefaultSeriesInterval,
		Timeline:       timeline.Config{SampleEvery: 64, WorstK: 16},
	})
	benchIOPath(b, "BT", WithMetrics(met))
	if rec := met.Timeline(); rec.Requests() == 0 {
		b.Fatal("recorder observed no requests")
	}
}
