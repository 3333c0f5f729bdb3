// Package minidb is a page-based transactional storage engine in the
// shape of InnoDB: 16 KB pages under a buffer pool with background
// flushing, a clustered B+tree index, a redo log with group commit, and
// checkpoint-based crash recovery. The paper's MySQL experiments (TPC-C,
// Sysbench) run against this engine so the characteristic I/O mix —
// random page reads, sequential redo writes with flushes, bursty
// checkpoints — crosses the simulated storage stack.
package minidb

import (
	"sort"

	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// PageSize is the database page size (InnoDB default).
const PageSize = 16 << 10

// pageID identifies one on-disk page.
type pageID uint32

// frame is one buffer-pool slot. version counts modifications so a
// checkpoint can tell whether a page was re-dirtied after its snapshot.
type frame struct {
	id      pageID
	data    []byte
	dirty   bool
	version uint64
	ref     bool // clock bit
	// node caches the decoded B+tree node for this page; it is kept
	// consistent by the btree layer, which re-encodes into data after
	// every mutation.
	node any
}

// pager is the buffer pool plus the on-disk page file. Pages live after
// the superblock and redo regions.
type pager struct {
	env      *sim.Env
	dev      host.BlockDevice
	baseBlk  uint64 // first device block of the page region
	capacity int    // pool size in frames

	frames map[pageID]*frame
	clock  []pageID
	hand   int

	nextPage pageID

	// dirtyN counts the dirty frames in frames, so the clean count that
	// insert consults on every fault is O(1). Every transition of
	// frame.dirty on a resident frame goes through markDirty, markClean or
	// insert; evictClean only drops clean frames.
	dirtyN int

	// onPressure fires when the pool cannot evict (everything dirty under
	// the no-steal policy); the DB responds with a checkpoint.
	onPressure func()

	// Stats for observability.
	Hits, Misses, Evictions, Writebacks, Overflows uint64
}

// markDirty records a modification to a resident page.
func (pg *pager) markDirty(f *frame) {
	if !f.dirty {
		f.dirty = true
		pg.dirtyN++
	}
	f.version++
}

// markClean records that a resident dirty page's image reached the disk.
func (pg *pager) markClean(f *frame) {
	if f.dirty {
		f.dirty = false
		pg.dirtyN--
	}
}

func newPager(env *sim.Env, dev host.BlockDevice, baseBlk uint64, poolPages int) *pager {
	return &pager{
		env: env, dev: dev, baseBlk: baseBlk, capacity: poolPages,
		frames: make(map[pageID]*frame),
	}
}

const blocksPerPage = PageSize / 4096

func (pg *pager) pageLBA(id pageID) uint64 {
	return pg.baseBlk + uint64(id)*blocksPerPage
}

// get returns the page if resident, without I/O.
func (pg *pager) get(id pageID) (*frame, bool) {
	f, ok := pg.frames[id]
	if ok {
		f.ref = true
		pg.Hits++
	}
	return f, ok
}

// fault reads the page from disk into the pool (evicting as needed) and
// returns its frame. May yield; callers restart their traversal afterward.
func (pg *pager) fault(p *sim.Proc, id pageID) (*frame, error) {
	if f, ok := pg.frames[id]; ok {
		return f, nil
	}
	pg.Misses++
	data := make([]byte, PageSize)
	if err := pg.dev.ReadAt(p, pg.pageLBA(id), blocksPerPage, data); err != nil {
		return nil, err
	}
	// The fault slept; someone else may have brought the page in.
	if f, ok := pg.frames[id]; ok {
		return f, nil
	}
	f := &frame{id: id, data: data, ref: true}
	if err := pg.insert(p, f); err != nil {
		return nil, err
	}
	return f, nil
}

// alloc creates a brand-new zeroed page resident in the pool.
func (pg *pager) alloc(p *sim.Proc) (*frame, error) {
	id := pg.nextPage
	pg.nextPage++
	f := &frame{id: id, data: make([]byte, PageSize), dirty: true, version: 1, ref: true}
	if err := pg.insert(p, f); err != nil {
		return nil, err
	}
	return f, nil
}

// minCleanFloor keeps enough clean frames resident that concurrent tree
// traversals cannot evict each other's freshly faulted pages in a loop.
const minCleanFloor = 8

// insert places a frame in the pool, evicting a clean victim when full.
// Dirty pages are never written back here (no-steal): when clean frames
// run out the pool overflows its nominal capacity and asks the DB for a
// checkpoint, which is what makes room again.
func (pg *pager) insert(p *sim.Proc, f *frame) error {
	for len(pg.frames) >= pg.capacity {
		if pg.cleanCount() <= minCleanFloor || !pg.evictClean() {
			pg.Overflows++
			if pg.onPressure != nil {
				pg.onPressure()
			}
			break
		}
	}
	_ = p
	pg.frames[f.id] = f
	if f.dirty {
		pg.dirtyN++
	}
	pg.clock = append(pg.clock, f.id)
	return nil
}

func (pg *pager) cleanCount() int { return len(pg.frames) - pg.dirtyN }

// evictClean runs the clock hand over at most two sweeps looking for a
// clean victim; it reports false when every page is dirty.
func (pg *pager) evictClean() bool {
	for scanned := 0; scanned < 2*len(pg.clock)+2; scanned++ {
		if len(pg.clock) == 0 {
			return false
		}
		pg.hand %= len(pg.clock)
		id := pg.clock[pg.hand]
		f, ok := pg.frames[id]
		if !ok {
			pg.clock = append(pg.clock[:pg.hand], pg.clock[pg.hand+1:]...)
			continue
		}
		if f.ref {
			f.ref = false
			pg.hand++
			continue
		}
		if f.dirty {
			pg.hand++
			continue
		}
		delete(pg.frames, id)
		pg.clock = append(pg.clock[:pg.hand], pg.clock[pg.hand+1:]...)
		pg.Evictions++
		return true
	}
	return false
}

func (pg *pager) writeback(p *sim.Proc, f *frame) error {
	pg.Writebacks++
	pg.markClean(f)
	// Copy so a concurrent modification between I/O start and finish
	// doesn't tear the written image.
	img := append([]byte(nil), f.data...)
	return pg.dev.WriteAt(p, pg.pageLBA(f.id), blocksPerPage, img)
}

// flushAll writes back every dirty page (checkpoint). The id snapshot is
// taken up front because writebacks yield and the pool mutates underneath.
func (pg *pager) flushAll(p *sim.Proc) error {
	ids := make([]pageID, 0, len(pg.frames))
	for id := range pg.frames {
		ids = append(ids, id)
	}
	// Sorted, not map order: the writeback sequence is device I/O and must
	// be a pure function of the workload for the determinism digests.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if f, ok := pg.frames[id]; ok && f.dirty {
			if err := pg.writeback(p, f); err != nil {
				return err
			}
		}
	}
	return pg.dev.Flush(p)
}
