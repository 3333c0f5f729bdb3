package kvstore_test

import (
	"math/rand"
	"testing"

	"bmstore/internal/apps/kvstore"
	"bmstore/internal/sim"
)

// BenchmarkKVStorePutGetThroughput prices one YCSB-A-shaped pair of a
// durable put and a point get over a loaded store whose small memtable
// flushes and compacts in the steady state, so gets go to the tables. One
// op is one put plus one get. make bench-gate pins its allocs/op
// (scripts/bench_allocs_baseline.txt).
func BenchmarkKVStorePutGetThroughput(b *testing.B) {
	r := newRig(b)
	b.ReportAllocs()
	r.run(b, func(p *sim.Proc) {
		s, err := kvstore.Open(p, r.env, r.drv.BlockDev(0), smallCfg())
		if err != nil {
			b.Fatal(err)
		}
		const n = 4000
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = key(i)
		}
		value := make([]byte, 400)
		for i := range value {
			value[i] = byte('a' + i%26)
		}
		for _, k := range keys {
			if err := s.Put(p, k, value); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Flush(p); err != nil {
			b.Fatal(err)
		}
		s.WaitIdle(p)
		rng := rand.New(rand.NewSource(1))
		op := func() {
			if err := s.Put(p, keys[rng.Intn(n)], value); err != nil {
				b.Fatal(err)
			}
			if _, _, err := s.Get(p, keys[rng.Intn(n)]); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			op()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
	})
}
