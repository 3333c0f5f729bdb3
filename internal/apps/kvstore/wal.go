package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"bmstore/internal/sim"
)

// wal is the write-ahead log: a ring of device blocks after the manifest
// region. Records carry a monotone LSN and a CRC; appends batch under a
// group-commit window so concurrent writers share one device write, the
// way RocksDB's write group works. Recovery replays records with LSN
// greater than the manifest's FlushedLSN, so records already captured by a
// flushed table are never re-applied.
type wal struct {
	s          *Store
	baseBlock  uint64
	blocks     uint64
	writeBlock uint64

	nextLSN uint64

	pending  []byte
	waiters  []*sim.Event
	flushing bool
}

// record layout: crc32(rest) | lsn u64 | klen u32 | vlen u32 | key | value.
// vlen 0xFFFFFFFF marks a tombstone.
const walRecordHeader = 20

func newWAL(s *Store, base, blocks uint64) *wal {
	return &wal{s: s, baseBlock: base, blocks: blocks, nextLSN: 1}
}

// appendRecord encodes one record onto dst and returns the extended slice.
// A nil value is written as a tombstone.
func appendRecord(dst []byte, lsn uint64, key, value []byte) []byte {
	vlen := uint32(len(value))
	if value == nil {
		vlen = 0xFFFFFFFF
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // crc, filled below
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint32(dst, vlen)
	dst = append(dst, key...)
	dst = append(dst, value...)
	binary.LittleEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(dst[start+4:]))
	return dst
}

// padBlocks zero-pads b in place to a whole number of bs-byte blocks.
func padBlocks(b []byte, bs int) []byte {
	n := len(b)
	pad := (bs - n%bs) % bs
	b = slices.Grow(b, pad)[:n+pad]
	clear(b[n:])
	return b
}

type walRecord struct {
	lsn   uint64
	key   []byte
	value []byte // nil = tombstone
}

// decodeRecords parses a batch byte stream; it stops at the first invalid
// record (torn write or stale bytes).
func decodeRecords(b []byte) []walRecord {
	var out []walRecord
	off := 0
	for off+walRecordHeader <= len(b) {
		crc := binary.LittleEndian.Uint32(b[off:])
		lsn := binary.LittleEndian.Uint64(b[off+4:])
		klen := binary.LittleEndian.Uint32(b[off+12:])
		vlen := binary.LittleEndian.Uint32(b[off+16:])
		tomb := vlen == 0xFFFFFFFF
		if tomb {
			vlen = 0
		}
		if klen == 0 || klen > 1<<20 || vlen > 1<<24 ||
			off+walRecordHeader+int(klen)+int(vlen) > len(b) {
			break
		}
		end := off + walRecordHeader + int(klen) + int(vlen)
		if crc32.ChecksumIEEE(b[off+4:end]) != crc {
			break
		}
		key := append([]byte(nil), b[off+walRecordHeader:off+walRecordHeader+int(klen)]...)
		var val []byte
		if !tomb {
			val = append([]byte(nil), b[off+walRecordHeader+int(klen):end]...)
		}
		out = append(out, walRecord{lsn: lsn, key: key, value: val})
		off = end
	}
	return out
}

// append adds one record and blocks until it is durable. It returns the
// record's LSN.
func (w *wal) append(p *sim.Proc, key, value []byte) (uint64, error) {
	lsn := w.nextLSN
	w.nextLSN++
	w.pending = appendRecord(w.pending, lsn, key, value)
	ev := w.s.env.NewEvent()
	w.waiters = append(w.waiters, ev)
	if !w.flushing {
		w.flushing = true
		w.s.env.Go("kv/wal", func(fp *sim.Proc) { w.commitLoop(fp) })
	}
	p.Wait(ev)
	return lsn, nil
}

// commitLoop gathers appends for the group-commit window, writes the batch
// in whole blocks (never wrapping mid-batch, so recovery can parse batches
// at block granularity), and wakes every waiter.
func (w *wal) commitLoop(p *sim.Proc) {
	defer func() { w.flushing = false }()
	for len(w.pending) > 0 {
		p.Sleep(w.s.cfg.GroupCommitWait)
		batch := w.pending
		waiters := w.waiters
		w.pending = nil
		w.waiters = nil
		bs := w.s.dev.BlockSize()
		nBlocks := uint64((len(batch) + bs - 1) / bs)
		if nBlocks > w.blocks {
			panic("kvstore: WAL batch larger than the whole ring")
		}
		if w.writeBlock+nBlocks > w.blocks {
			w.writeBlock = 0 // keep the batch contiguous
		}
		batch = padBlocks(batch, bs)
		if err := w.s.dev.WriteAt(p, w.baseBlock+w.writeBlock, uint32(nBlocks), batch); err == nil {
			w.writeBlock += nBlocks
		}
		for _, ev := range waiters {
			ev.Trigger(nil)
		}
	}
}

// sync waits until everything appended so far is durable.
func (w *wal) sync(p *sim.Proc) error {
	for w.flushing || len(w.pending) > 0 {
		ev := w.s.env.NewEvent()
		w.waiters = append(w.waiters, ev)
		if !w.flushing {
			w.flushing = true
			w.s.env.Go("kv/wal", func(fp *sim.Proc) { w.commitLoop(fp) })
		}
		p.Wait(ev)
	}
	return w.s.dev.Flush(p)
}

// recover scans the whole ring, collects valid records newer than
// flushedLSN, and replays them in LSN order.
func (w *wal) recover(p *sim.Proc, flushedLSN uint64) error {
	bs := w.s.dev.BlockSize()
	ring := make([]byte, w.blocks*uint64(bs))
	const chunk = 256
	for blk := uint64(0); blk < w.blocks; blk += chunk {
		n := uint64(chunk)
		if w.blocks-blk < n {
			n = w.blocks - blk
		}
		if err := w.s.dev.ReadAt(p, w.baseBlock+blk, uint32(n), ring[blk*uint64(bs):(blk+n)*uint64(bs)]); err != nil {
			return err
		}
	}
	// Batches always start at block boundaries; parse from each boundary
	// not already consumed by a previous batch.
	var recs []walRecord
	consumed := make([]bool, w.blocks)
	for blk := uint64(0); blk < w.blocks; blk++ {
		if consumed[blk] {
			continue
		}
		batch := decodeRecords(ring[blk*uint64(bs):])
		if len(batch) == 0 {
			continue
		}
		var batchBytes int
		for _, r := range batch {
			batchBytes += walRecordHeader + len(r.key) + len(r.value)
		}
		for b := blk; b < blk+uint64((batchBytes+bs-1)/bs) && b < w.blocks; b++ {
			consumed[b] = true
		}
		recs = append(recs, batch...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].lsn < recs[j].lsn })
	var maxLSN uint64
	for _, r := range recs {
		if r.lsn <= flushedLSN {
			continue
		}
		w.s.mem.put(r.key, r.value)
		if r.lsn > maxLSN {
			maxLSN = r.lsn
		}
	}
	if maxLSN >= w.nextLSN {
		w.nextLSN = maxLSN + 1
	}
	if flushedLSN >= w.nextLSN {
		w.nextLSN = flushedLSN + 1
	}
	return nil
}

// allocator is a simple block-range allocator for table segments.
type allocator struct {
	next uint64
	end  uint64
	free [][2]uint64
}

func newAllocator(start, end uint64) *allocator {
	return &allocator{next: start, end: end}
}

func (a *allocator) alloc(n uint64) (uint64, error) {
	for i, r := range a.free {
		if r[1] >= n {
			base := r[0]
			a.free[i] = [2]uint64{r[0] + n, r[1] - n}
			if a.free[i][1] == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			return base, nil
		}
	}
	if a.next+n > a.end {
		return 0, fmt.Errorf("kvstore: device full (%d blocks wanted)", n)
	}
	base := a.next
	a.next += n
	return base, nil
}

func (a *allocator) release(base, n uint64) {
	if n > 0 {
		a.free = append(a.free, [2]uint64{base, n})
	}
}
