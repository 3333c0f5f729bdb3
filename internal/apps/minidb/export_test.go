package minidb

// CleanCounts returns the pager's clean-frame count and the count a walk
// of the frame map gives; they must always agree.
func (db *DB) CleanCounts() (counted, walked int) {
	for _, f := range db.pool.frames {
		if !f.dirty {
			walked++
		}
	}
	return db.pool.cleanCount(), walked
}

// DirtyVersions maps every resident dirty page to its version.
func (db *DB) DirtyVersions() map[uint32]uint64 {
	out := make(map[uint32]uint64)
	for id, f := range db.pool.frames {
		if f.dirty {
			out[uint32(id)] = f.version
		}
	}
	return out
}

// PoolStats returns the buffer pool's eviction and no-steal overflow
// counts.
func (db *DB) PoolStats() (evictions, overflows uint64) {
	return db.pool.Evictions, db.pool.Overflows
}
