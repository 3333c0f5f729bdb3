package ssd

// Capture accessors for the crash-recovery subsystem (internal/crash):
// out-of-band reads/writes of the device's captured payload store,
// addressed by (namespace, LBA) like an NVMe command but consuming no
// virtual time and no queue slots. The crash manager uses them to copy
// journaled payloads at write-ack time, to clobber journal-covered blocks
// at a crash (the lost write-back cache), and to redo the journal at
// recovery. They only act when the rig captures real data
// (Config.CaptureData); on content-free rigs they are no-ops, exactly like
// the data-hazard fault points.

// CaptureRead returns a copy of nlb blocks at slba in namespace nsid, or
// nil when data capture is off or the namespace is unknown.
func (d *SSD) CaptureRead(nsid uint32, slba uint64, nlb uint32) []byte {
	if !d.cfg.CaptureData {
		return nil
	}
	ns := d.nss[nsid]
	if ns == nil {
		return nil
	}
	n := int(nlb) * BlockSize
	return d.readBytesInto(make([]byte, n), (ns.startLBA+slba)*BlockSize, n)
}

// CaptureWrite stores data (len = nlb blocks) at slba in namespace nsid.
func (d *SSD) CaptureWrite(nsid uint32, slba uint64, data []byte) {
	if !d.cfg.CaptureData || len(data) == 0 {
		return
	}
	ns := d.nss[nsid]
	if ns == nil {
		return
	}
	d.writeBytes((ns.startLBA+slba)*BlockSize, data)
}

// CaptureZero discards nlb blocks at slba in namespace nsid, so they read
// back as zeroes — the model of data lost from a volatile cache.
func (d *SSD) CaptureZero(nsid uint32, slba uint64, nlb uint32) {
	if !d.cfg.CaptureData {
		return
	}
	ns := d.nss[nsid]
	if ns == nil {
		return
	}
	d.zeroBlocks(ns.startLBA+slba, uint64(nlb))
}

// --- sparse data store (byte-granular over 4K blocks) ---

// readBytesInto copies n bytes at device byte start into out (len(out) ==
// n), zeroing it first so sparse unwritten ranges read back as zeroes. The
// data path reuses one staging buffer per in-flight command with it.
func (d *SSD) readBytesInto(out []byte, start uint64, n int) []byte {
	for i := range out {
		out[i] = 0
	}
	var off int
	for off < n {
		lba := (start + uint64(off)) / BlockSize
		in := int((start + uint64(off)) % BlockSize)
		l := BlockSize - in
		if l > n-off {
			l = n - off
		}
		if blk := d.store[lba]; blk != nil {
			copy(out[off:off+l], blk[in:])
		}
		off += l
	}
	return out
}

func (d *SSD) writeBytes(start uint64, data []byte) {
	var off int
	for off < len(data) {
		lba := (start + uint64(off)) / BlockSize
		in := int((start + uint64(off)) % BlockSize)
		l := BlockSize - in
		if l > len(data)-off {
			l = len(data) - off
		}
		blk := d.store[lba]
		if blk == nil {
			blk = make([]byte, BlockSize)
			d.store[lba] = blk
		}
		copy(blk[in:in+l], data[off:off+l])
		off += l
	}
}

func (d *SSD) zeroBlocks(lba, n uint64) {
	for i := uint64(0); i < n; i++ {
		delete(d.store, lba+i)
	}
}
