package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"bmstore/internal/apps/kvstore"
	"bmstore/internal/apps/minidb"
	"bmstore/internal/apps/sysbench"
	"bmstore/internal/apps/ycsb"
	"bmstore/internal/fio"
	"bmstore/internal/sim"
	"bmstore/internal/stats"
)

// simResult is what a rep produced in simulated terms. Its digest is the
// benchmark's correctness oracle: a change that only makes the simulator
// cheaper to run must leave it bit-identical. The determinism trace digest
// is deliberately not part of it — kernel records legitimately change when
// the process mechanism or data path is reworked — and neither is anything
// host-side.
type simResult struct {
	End      sim.Time // virtual time the measured window ended
	Fio      *fio.Result
	YCSB     [2]*ycsb.Result
	Sysbench [2]*sysbench.Result
	KVScan   [2][]byte // sha256 of each store's final full scan
	DBRows   [2][]byte // sha256 of each database's final rows

	err error // set-up or verification failure
}

// ops is the number of operations the rep attempted and how many of them
// failed: fio I/Os, YCSB operations and sysbench transactions.
func (r *simResult) ops() (attempted, failed uint64) {
	if r.Fio != nil {
		attempted += r.Fio.Read.Ops + r.Fio.Write.Ops
	}
	for _, y := range r.YCSB {
		if y != nil {
			attempted += y.Ops
			failed += y.Failed
		}
	}
	for _, s := range r.Sysbench {
		if s != nil {
			attempted += s.Transactions
		}
	}
	return attempted, failed
}

// digest folds every simulated result of the rep into one hex string.
func (r *simResult) digest() string {
	h := sha256.New()
	putInt(h, r.End)
	if f := r.Fio; f != nil {
		putIO(h, &f.Read)
		putIO(h, &f.Write)
		for i := range f.Jobs {
			putInt(h, int64(f.Jobs[i].Read.Ops))
			putInt(h, int64(f.Jobs[i].Write.Ops))
		}
	}
	for _, y := range r.YCSB {
		if y != nil {
			putInt(h, int64(y.Ops))
			putInt(h, int64(y.Failed))
			putHist(h, &y.Lat)
		}
	}
	for _, s := range r.Sysbench {
		if s != nil {
			putInt(h, int64(s.Transactions))
			putInt(h, int64(s.Queries))
			putHist(h, &s.Lat)
		}
	}
	for i := range r.KVScan {
		h.Write(r.KVScan[i])
		h.Write(r.DBRows[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func putIO(h hash.Hash, s *stats.IOStats) {
	putInt(h, int64(s.Ops))
	putInt(h, int64(s.Bytes))
	putHist(h, &s.Lat)
}

// putHist folds a latency histogram through its public surface: count,
// extremes, exact mean, and the value at every permille, which pins the
// bucket a sample landed in across the whole distribution.
func putHist(h hash.Hash, l *stats.Hist) {
	putInt(h, int64(l.N()))
	putInt(h, l.Min())
	putInt(h, l.Max())
	putInt(h, int64(math.Float64bits(l.Mean())))
	for q := 1; q <= 1000; q++ {
		putInt(h, l.Percentile(float64(q)/1000))
	}
}

// verifyFio checks what holds for any seed: every I/O is 4 KiB, the mix has
// both directions, and latencies are positive.
func (r *simResult) verifyFio() error {
	f := r.Fio
	if f == nil {
		return fmt.Errorf("fio produced no result")
	}
	bs := uint64(f.Spec.BlockSize)
	for _, d := range []struct {
		name string
		s    *stats.IOStats
	}{{"read", &f.Read}, {"write", &f.Write}} {
		if d.s.Ops == 0 || d.s.Bytes != d.s.Ops*bs || d.s.Lat.N() != d.s.Ops || d.s.Lat.Min() <= 0 {
			return fmt.Errorf("fio %s: ops=%d bytes=%d lat.n=%d lat.min=%d", d.name, d.s.Ops, d.s.Bytes, d.s.Lat.N(), d.s.Lat.Min())
		}
	}
	return nil
}

// verifyApps runs after the window inside the simulation: it scans every
// store and database to the end, checks the contents against what the
// workloads can have written, and folds them into the result.
func (r *simResult) verifyApps(p *sim.Proc, stores [2]*kvstore.Store, dbs [2]*minidb.DB) {
	for i, s := range stores {
		sum, err := verifyStore(p, s)
		if err != nil {
			r.err = fmt.Errorf("kv%d: %w", i, err)
			return
		}
		r.KVScan[i] = sum
	}
	for i, db := range dbs {
		sum, err := verifyDB(p, db, r.Sysbench[i])
		if err != nil {
			r.err = fmt.Errorf("db%d: %w", i, err)
			return
		}
		r.DBRows[i] = sum
	}
	for i, y := range r.YCSB {
		if y == nil || y.Ops == 0 || y.Failed != 0 {
			r.err = fmt.Errorf("ycsb%d: bad result %+v", i, y)
			return
		}
	}
}

// verifyStore checks a YCSB-A store: updates only rewrite loaded keys, so a
// full scan returns exactly the loaded keys in order, each with a value of
// the loaded length drawn from the YCSB alphabet.
func verifyStore(p *sim.Proc, s *kvstore.Store) ([]byte, error) {
	kvs, err := s.Scan(p, nil, kvRecords+1)
	if err != nil {
		return nil, err
	}
	if len(kvs) != kvRecords {
		return nil, fmt.Errorf("scan returned %d keys, want %d", len(kvs), kvRecords)
	}
	h := sha256.New()
	for i, kv := range kvs {
		if want := fmt.Sprintf("user%012d", i); string(kv.Key) != want {
			return nil, fmt.Errorf("key %d is %q, want %q", i, kv.Key, want)
		}
		if len(kv.Value) != kvValueBytes || bytes.IndexFunc(kv.Value, func(c rune) bool { return c < 'a' || c > 'z' }) >= 0 {
			return nil, fmt.Errorf("key %q has a malformed value (%d bytes)", kv.Key, len(kv.Value))
		}
		h.Write(kv.Key)
		h.Write(kv.Value)
	}
	return h.Sum(nil), nil
}

// verifyDB checks a sysbench table: the loaded rows 0..dbRows-1, then one
// fresh row per transaction started at keys dbRows+1 upward, every row of
// the sysbench row length in digits.
func verifyDB(p *sim.Proc, db *minidb.DB, res *sysbench.Result) ([]byte, error) {
	if res == nil || res.Transactions == 0 {
		return nil, fmt.Errorf("sysbench committed no transactions")
	}
	// Transactions that finish past the window still insert their row, so
	// the table may hold more inserts than res counts; read them all.
	rows, err := db.Begin().ReadRange(p, 0, math.MaxInt32)
	if err != nil {
		return nil, err
	}
	inserted := uint64(len(rows)) - dbRows
	if len(rows) < dbRows || inserted < res.Transactions {
		return nil, fmt.Errorf("table holds %d rows, want at least %d", len(rows), dbRows+res.Transactions)
	}
	h := sha256.New()
	for i, row := range rows {
		want := uint64(i)
		if i >= dbRows {
			want = uint64(i) + 1
		}
		if row.Key != want {
			return nil, fmt.Errorf("row %d has key %d, want %d", i, row.Key, want)
		}
		if len(row.Data) != dbRowBytes || bytes.IndexFunc(row.Data, func(c rune) bool { return c < '0' || c > '9' }) >= 0 {
			return nil, fmt.Errorf("row %d is malformed (%d bytes)", row.Key, len(row.Data))
		}
		putInt(h, int64(row.Key))
		h.Write(row.Data)
	}
	return h.Sum(nil), nil
}
