package ycsb_test

import (
	"bytes"
	"math/rand"
	"testing"

	"bmstore/internal/apps/kvstore"
	"bmstore/internal/apps/ycsb"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

func runOn(t *testing.T, fn func(p *sim.Proc, env *sim.Env, s *kvstore.Store)) {
	t.Helper()
	env := sim.NewEnv(51)
	h := host.New(env, 768<<30, host.CentOS("3.10.0"))
	cfg := ssd.P4510("Y001")
	cfg.CapacityBytes = 4 << 30
	dev := ssd.New(env, cfg)
	port := h.Connect(pcie.NewLink(env, 4, 300*sim.Nanosecond), dev, nil)
	dev.Attach(port)
	var drv *host.Driver
	var err error
	env.Go("attach", func(p *sim.Proc) {
		dcfg := host.DefaultDriverConfig()
		dcfg.CreateNSBlocks = cfg.CapacityBytes / ssd.BlockSize
		drv, err = host.AttachDriver(p, h, port, 0, dcfg)
	})
	env.Run()
	if err != nil {
		t.Fatal(err)
	}
	main := env.Go("test", func(p *sim.Proc) {
		s, serr := kvstore.Open(p, env, drv.BlockDev(0), kvstore.DefaultConfig())
		if serr != nil {
			t.Fatal(serr)
		}
		fn(p, env, s)
	})
	env.RunUntilEvent(main.Done())
	env.Shutdown()
}

func TestZipfianBoundsAndSkew(t *testing.T) {
	env := sim.NewEnv(1)
	rng := env.Rand("zipf")
	z := ycsb.NewZipfian(rng, 1000)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		k := z.Next()
		if k < 0 || k >= 1000 {
			t.Fatalf("zipfian out of bounds: %d", k)
		}
		counts[k]++
	}
	// Head keys dominate: key 0 should beat the median key by a lot.
	if counts[0] < 20*counts[500]+1 {
		t.Fatalf("no skew: head %d vs mid %d", counts[0], counts[500])
	}
}

func TestWorkloadCThroughputAndReads(t *testing.T) {
	runOn(t, func(p *sim.Proc, env *sim.Env, s *kvstore.Store) {
		cfg := ycsb.Config{Records: 3000, ValueBytes: 200, Threads: 4, Duration: 200 * sim.Millisecond}
		if err := ycsb.Load(p, s, cfg); err != nil {
			t.Fatal(err)
		}
		res := ycsb.Run(p, env, s, ycsb.WorkloadC(), cfg)
		if res.Ops == 0 || res.Failed != 0 {
			t.Fatalf("ops=%d failed=%d", res.Ops, res.Failed)
		}
		if res.Throughput() < 1000 {
			t.Fatalf("throughput %.0f too low", res.Throughput())
		}
		if s.Stats.Gets < res.Ops {
			t.Fatalf("reads not reaching the store: %d vs %d", s.Stats.Gets, res.Ops)
		}
	})
}

func TestWorkloadAMixesWrites(t *testing.T) {
	runOn(t, func(p *sim.Proc, env *sim.Env, s *kvstore.Store) {
		cfg := ycsb.Config{Records: 2000, ValueBytes: 200, Threads: 4, Duration: 200 * sim.Millisecond}
		if err := ycsb.Load(p, s, cfg); err != nil {
			t.Fatal(err)
		}
		before := s.Stats.Puts
		res := ycsb.Run(p, env, s, ycsb.WorkloadA(), cfg)
		writes := s.Stats.Puts - before
		frac := float64(writes) / float64(res.Ops)
		if frac < 0.4 || frac > 0.6 {
			t.Fatalf("write fraction %.2f, want ~0.5", frac)
		}
	})
}

func TestWorkloadEScans(t *testing.T) {
	runOn(t, func(p *sim.Proc, env *sim.Env, s *kvstore.Store) {
		cfg := ycsb.Config{Records: 2000, ValueBytes: 200, Threads: 2, Duration: 100 * sim.Millisecond}
		if err := ycsb.Load(p, s, cfg); err != nil {
			t.Fatal(err)
		}
		res := ycsb.Run(p, env, s, ycsb.WorkloadE(), cfg)
		if s.Stats.Scans == 0 {
			t.Fatal("workload E produced no scans")
		}
		if res.Failed != 0 {
			t.Fatalf("%d failures", res.Failed)
		}
	})
}

// scriptedSource replays fixed Int63 outputs, so a test can force the
// rejection branch of Int31n(26), which a real source hits about once in
// 10^8 draws.
type scriptedSource struct {
	vals []int64
	i    int
}

func (s *scriptedSource) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func (s *scriptedSource) Seed(int64) {}

// TestValueMakesIntnDraws checks that value makes exactly the draws of a
// byte('a'+rng.Intn(26)) loop: same bytes, and the same RNG state after,
// shown by the next Int63 of both generators agreeing.
func TestValueMakesIntnDraws(t *testing.T) {
	const top = int64(1<<31-1) << 32 // Int31 = MaxInt32: rejected
	rigs := map[string]func() rand.Source{
		"seed 1":    func() rand.Source { return rand.NewSource(1) },
		"seed 4242": func() rand.Source { return rand.NewSource(4242) },
		"seed -9":   func() rand.Source { return rand.NewSource(-9) },
		"rejects": func() rand.Source {
			return &scriptedSource{vals: []int64{top, 5 << 32, top, top, 25<<32 | 7, 0, top - 1<<32}}
		},
	}
	for name, src := range rigs {
		for _, n := range []int{0, 1, 7, 26, 400, 4096} {
			rng, twin := rand.New(src()), rand.New(src())
			for rep := 0; rep < 3; rep++ {
				got := ycsb.Value(rng, n)
				want := make([]byte, n)
				for i := range want {
					want[i] = byte('a' + twin.Intn(26))
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s n=%d rep %d: value = %q, Intn loop = %q", name, n, rep, got, want)
				}
			}
			if a, b := rng.Int63(), twin.Int63(); a != b {
				t.Fatalf("%s n=%d: next Int63 %d vs %d: value consumed a different number of draws", name, n, a, b)
			}
		}
	}
}
