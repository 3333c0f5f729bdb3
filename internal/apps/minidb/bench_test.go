package minidb_test

import (
	"math/rand"
	"testing"

	"bmstore/internal/apps/minidb"
	"bmstore/internal/sim"
)

// BenchmarkMinidbTxnThroughput prices one sysbench-shaped read/write
// transaction on a loaded table behind the 64-page test pool, so page
// faults, evictions and checkpoints are part of the steady state: 10 point
// reads, one 20-row range read, 2 row updates and one insert, committed
// under group commit. One op is one transaction. make bench-gate pins its
// allocs/op (scripts/bench_allocs_baseline.txt).
func BenchmarkMinidbTxnThroughput(b *testing.B) {
	r := newRig(b)
	b.ReportAllocs()
	r.run(b, func(p *sim.Proc) {
		db, err := minidb.Open(p, r.env, r.drv.BlockDev(0), dbCfg())
		if err != nil {
			b.Fatal(err)
		}
		const rows = 5000
		data := make([]byte, 190)
		for i := range data {
			data[i] = byte('0' + i%10)
		}
		for i := 0; i < rows; i += 100 {
			tx := db.Begin()
			for k := i; k < i+100; k++ {
				tx.Write(uint64(k), data)
			}
			if err := tx.Commit(p); err != nil {
				b.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(1))
		next := uint64(rows)
		txn := func() {
			tx := db.Begin()
			for i := 0; i < 10; i++ {
				if _, _, err := tx.Read(p, uint64(rng.Intn(rows))); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := tx.ReadRange(p, uint64(rng.Intn(rows)), 20); err != nil {
				b.Fatal(err)
			}
			tx.Write(uint64(rng.Intn(rows)), data)
			tx.Write(uint64(rng.Intn(rows)), data)
			tx.Write(next, data)
			next++
			if err := tx.Commit(p); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			txn()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			txn()
		}
		b.StopTimer()
	})
}
