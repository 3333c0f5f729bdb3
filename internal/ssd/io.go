package ssd

// This file is the SSD's I/O data path: the per-queue SQE fetch and the
// execution of NVM commands, as pooled continuation-passing state machines
// driven directly by scheduler callbacks instead of a process per queue and
// a process per command.
//
// Every virtual-time wait is an Env.Schedule at the program point where a
// sequential implementation would sleep, and every synchronous step (pacer
// reservations, RNG draws, resource acquisition, DMA bookings, trace
// records, fault-rule evaluation) runs at a fixed position in that
// sequence, so queue order, tie-breaking and every timestamp are a pure
// function of the seed. See DESIGN.md §11 for the fusion rules. The model
// records this chain emits are pinned by the model-trace test in
// internal/trace. The admin queue (SQ 0) runs as a process instead
// (fetchLoop in ssd.go): admin commands are rare, stateful, and not worth
// fusing.

import (
	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
)

// after runs fn once delay has elapsed, running it at once when delay is
// not positive (a sleep of zero does not yield).
func (d *SSD) after(delay sim.Time, fn func()) {
	if delay > 0 {
		d.env.Schedule(delay, fn)
		return
	}
	fn()
}

// sqFetch drains one I/O submission queue: it DMA-reads SQEs in arrival
// order and starts one command record per SQE, preserving the paper's
// pipeline (fetch is sequential per queue; execution is parallel). One per
// queue, created on the first doorbell and reused for the queue's lifetime.
type sqFetch struct {
	d   *SSD
	sq  *subQueue
	buf [nvme.SQESize]byte

	// Command parked between SQE decode and the CmdLatency continuation.
	pendCmd  nvme.Command
	pendHead uint32

	stepFn     func()
	decodedFn  func()
	dispatchFn func()
}

func newSQFetch(d *SSD, sq *subQueue) *sqFetch {
	f := &sqFetch{d: d, sq: sq}
	f.stepFn = f.step
	f.decodedFn = f.decoded
	f.dispatchFn = f.dispatch
	return f
}

// step is one fetch iteration: exit checks, an injected stall, then the SQE
// DMA fetch.
func (f *sqFetch) step() {
	d, sq := f.d, f.sq
	if sq.head == sq.tail || d.resetting || !d.ready || d.gone() {
		sq.fetching = false
		return
	}
	// Injected controller stall: the fetch engine freezes until the window
	// ends (commands already executing are unaffected), then re-checks
	// liveness.
	if d.flt != nil {
		now := d.env.Now()
		if end := d.flt.StallUntil(fault.SSDStall, d.cfg.Serial, now); end > now {
			if d.tr != nil {
				d.tr.Emit(now, "fault", "ssd-stall", uint64(sq.id), uint64(end-now), d.cfg.Serial)
			}
			d.env.Schedule(end-now, f.stepFn)
			return
		}
	}
	done := d.port.DMARead(sq.ring.SlotAddr(sq.head), nvme.SQESize, f.buf[:])
	d.after(done-d.env.Now(), f.decodedFn)
}

func (f *sqFetch) decoded() {
	d, sq := f.d, f.sq
	f.pendCmd = nvme.DecodeCommand(&f.buf)
	sq.head = sq.ring.Next(sq.head)
	f.pendHead = sq.head
	d.after(d.cfg.CmdLatency, f.dispatchFn)
}

// dispatch starts the command's state machine one queue hop later while the
// fetch loop continues immediately, so this queue's next SQE fetch
// interleaves with the command's own DMA bookings.
func (f *sqFetch) dispatch() {
	d := f.d
	io := d.getIO(f.sq, f.pendCmd, f.pendHead)
	d.env.Schedule(0, io.startFn)
	f.step()
}

// hazards carries the data-hazard faults drawn for one command. They damage
// payload bytes on the captured-data path while the command still completes
// with success — silent corruption, not an error.
type hazards struct {
	corrupt   bool // flip one byte of the read payload
	misdirect bool // serve the neighbouring block's data
	torn      bool // persist only the first half of the write payload
}

// nandStripe is one pooled parallel NAND read of a multi-stripe command.
type nandStripe struct {
	d   *SSD
	io  *ssdIO
	lat sim.Time
	t0  sim.Time // acquire-start timestamp for die-wait attribution

	startFn func()
	acqFn   func(any)
	doneFn  func()
}

func (d *SSD) getStripe(io *ssdIO, lat sim.Time) *nandStripe {
	var s *nandStripe
	if n := len(d.stripeFree); n > 0 {
		s = d.stripeFree[n-1]
		d.stripeFree = d.stripeFree[:n-1]
	} else {
		s = &nandStripe{d: d}
		s.startFn = s.start
		s.acqFn = s.acquired
		s.doneFn = s.done
	}
	s.io, s.lat = io, lat
	return s
}

func (s *nandStripe) start() {
	s.t0 = s.d.env.Now()
	s.d.dies.AcquireCB(s.acqFn)
}

func (s *nandStripe) acquired(any) {
	if a := s.io.alias; a != 0 {
		// Pure queueing for the die: elapsed from acquire to grant.
		s.d.met.SpanWaitDev(a, timeline.WaitDie, int64(s.d.env.Now()-s.t0))
	}
	s.d.after(s.lat, s.doneFn)
}

// done releases the die, then — only when this is the last outstanding
// stripe — schedules the parent continuation one queue hop later, the
// join point of all the command's stripes.
func (s *nandStripe) done() {
	d, io := s.d, s.io
	s.io = nil
	d.stripeFree = append(d.stripeFree, s)
	d.dies.Release()
	io.remaining--
	if io.remaining == 0 {
		d.env.Schedule(0, io.nandDoneFn)
	}
}

// ssdIO is one pooled in-flight I/O command. All bound continuation funcs
// are created once when the record is first allocated and reused across
// commands.
type ssdIO struct {
	d      *SSD
	sq     *subQueue
	cmd    nvme.Command
	sqHead uint32

	devByte uint64
	n       int
	segs    []nvme.Segment
	t0      sim.Time // issue timestamp (after the PRP walk): stats + span base
	mt0     sim.Time // media phase start
	lat     sim.Time // single-stripe NAND latency
	media   sim.Time
	acq0    sim.Time // single-stripe die-acquire start (die-wait attribution)
	alias   uint64   // device-domain span alias; zero when timeline is off

	faultStatus nvme.Status // status of an injected media fault
	hzd         hazards

	remaining int // outstanding parallel NAND stripes

	prps nvme.PRPListCache
	dbuf []byte   // pooled read-payload staging (CaptureData only)
	bufs [][]byte // pooled write-payload segment buffers (CaptureData only)

	startFn      func()
	walkFn       func()
	mediaFaultFn func()
	flushDoneFn  func()
	wzDoneFn     func()
	dieAcqFn     func(any)
	dieDoneFn    func()
	nandDoneFn   func()
	readPacedFn  func()
	readOutFn    func()
	writeFetchFn func()
	writePacedFn func()
	writeDoneFn  func()
}

func (d *SSD) getIO(sq *subQueue, cmd nvme.Command, sqHead uint32) *ssdIO {
	var io *ssdIO
	if n := len(d.ioFree); n > 0 {
		io = d.ioFree[n-1]
		d.ioFree = d.ioFree[:n-1]
	} else {
		io = &ssdIO{d: d}
		io.startFn = io.start
		io.walkFn = io.walk
		io.mediaFaultFn = io.mediaFaultDone
		io.flushDoneFn = io.flushDone
		io.wzDoneFn = io.wzDone
		io.dieAcqFn = io.dieAcquired
		io.dieDoneFn = io.dieDone
		io.nandDoneFn = io.nandDone
		io.readPacedFn = io.readPaced
		io.readOutFn = io.readOut
		io.writeFetchFn = io.writeFetched
		io.writePacedFn = io.writePaced
		io.writeDoneFn = io.writeDone
	}
	io.sq, io.cmd, io.sqHead = sq, cmd, sqHead
	return io
}

func (d *SSD) putIO(io *ssdIO) {
	io.prps.Release(&d.prpPages)
	io.sq = nil
	if io.segs != nil {
		io.segs = io.segs[:0]
	}
	d.ioFree = append(d.ioFree, io)
}

// start runs one queue hop after dispatch and validates the command.
func (io *ssdIO) start() {
	d := io.d
	if d.resetting {
		io.finish(nvme.StatusNSNotReady)
		return
	}
	switch io.cmd.Opcode {
	case nvme.IOFlush:
		d.after(d.cfg.FlushLatency, io.flushDoneFn)
		return
	case nvme.IORead, nvme.IOWrite, nvme.IOWriteZeroes:
		// handled below
	default:
		io.finish(nvme.StatusInvalidOpcode)
		return
	}
	ns, ok := d.nss[io.cmd.NSID]
	if !ok {
		io.finish(nvme.StatusInvalidNamespace)
		return
	}
	slba := io.cmd.SLBA()
	nlb := uint64(io.cmd.NLB())
	if slba+nlb > ns.sizeLBA {
		io.finish(nvme.StatusLBAOutOfRange)
		return
	}
	io.devByte = (ns.startLBA + slba) * BlockSize
	if io.cmd.Opcode == nvme.IOWriteZeroes {
		d.zeroBlocks(ns.startLBA+slba, nlb)
		d.after(d.cfg.WriteCacheLatency, io.wzDoneFn)
		return
	}
	io.n = int(nlb) * BlockSize
	io.walk()
}

func (io *ssdIO) flushDone() { io.finish(nvme.StatusSuccess) }
func (io *ssdIO) wzDone()    { io.finish(nvme.StatusSuccess) }

// walk resolves the command's PRPs, fetching at most one missing list page
// per attempt (see nvme.PRPListCache), then issues the command.
func (io *ssdIO) walk() {
	d := io.d
	segs, page, need, err := io.prps.Walk(io.segs[:0], io.cmd.PRP1, io.cmd.PRP2, io.n)
	if need {
		b := d.prpPages.Get()
		done := d.port.DMARead(page, nvme.PageSize, b)
		io.prps.Add(page, b)
		d.after(done-d.env.Now(), io.walkFn)
		return
	}
	if err != nil {
		io.finish(nvme.StatusInvalidField)
		return
	}
	io.segs = segs
	io.issue()
}

// issue starts the media operation: span alias, trace record, then an
// injected media fault on the read path.
func (io *ssdIO) issue() {
	d := io.d
	io.t0 = d.env.Now()
	io.alias = 0
	if d.tl {
		io.alias = obs.DevKey(d.cfg.Serial, io.sq.id, io.cmd.CID)
	}
	if d.tr != nil {
		d.tr.Emit(io.t0, "ssd", "issue", uint64(io.cmd.Opcode)<<56|io.devByte, uint64(io.n), d.cfg.Serial)
	}
	io.faultStatus = nvme.StatusSuccess
	// Injected media fault on the read path: a latency spike (Duration),
	// an unrecoverable/transient status (Status), or both — the spike
	// elapses first. The die is the one serving the operation's first
	// stripe, so die-targeted rules model a single failing NAND package.
	if d.flt != nil && io.cmd.Opcode == nvme.IORead {
		die := int(io.devByte / uint64(d.cfg.StripeBytes) % uint64(d.cfg.Dies))
		if r := d.flt.HitMedia(d.cfg.Serial, die, io.t0); r != nil {
			if d.tr != nil {
				d.tr.Emit(io.t0, "fault", "media", uint64(die)<<16|uint64(r.Status), uint64(r.Duration), d.cfg.Serial)
			}
			io.faultStatus = nvme.Status(r.Status)
			d.after(sim.Time(r.Duration), io.mediaFaultFn)
			return
		}
	}
	io.mediaFaultDone()
}

// mediaFaultDone runs once any injected media latency has elapsed: an
// injected status fails the command; otherwise the data hazards are drawn
// and the media phase starts.
func (io *ssdIO) mediaFaultDone() {
	d := io.d
	if io.faultStatus != nvme.StatusSuccess {
		io.finish(io.faultStatus)
		return
	}
	// Data-hazard faults: evaluated only when the rig captures real data
	// (there is no payload to damage otherwise), so hazard rules on a
	// digest-only rig count zero injections instead of silently "firing".
	io.hzd = hazards{}
	if d.flt != nil && d.cfg.CaptureData {
		now := d.env.Now()
		switch io.cmd.Opcode {
		case nvme.IORead:
			if d.flt.Hit(fault.MediaCorrupt, d.cfg.Serial, now) != nil {
				io.hzd.corrupt = true
				if d.tr != nil {
					d.tr.Emit(now, "fault", "media-corrupt", io.devByte, uint64(io.n), d.cfg.Serial)
				}
			}
			if d.flt.Hit(fault.ReadMisdirect, d.cfg.Serial, now) != nil {
				io.hzd.misdirect = true
				if d.tr != nil {
					d.tr.Emit(now, "fault", "misdirected-read", io.devByte, uint64(io.n), d.cfg.Serial)
				}
			}
		case nvme.IOWrite:
			if d.flt.Hit(fault.WriteTorn, d.cfg.Serial, now) != nil {
				io.hzd.torn = true
				if d.tr != nil {
					d.tr.Emit(now, "fault", "torn-write", io.devByte, uint64(io.n), d.cfg.Serial)
				}
			}
		}
	}
	if io.cmd.Opcode == nvme.IORead {
		io.startRead()
	} else {
		io.startWrite()
	}
}

// --- read path ---

func (io *ssdIO) startRead() {
	d := io.d
	io.mt0 = d.env.Now()
	stripes := (io.n + d.cfg.StripeBytes - 1) / d.cfg.StripeBytes
	if stripes == 1 {
		// The jitter draw precedes the die acquire.
		io.lat = d.jitter(d.cfg.NANDReadLatency)
		io.acq0 = d.env.Now()
		d.dies.AcquireCB(io.dieAcqFn)
		return
	}
	// Stripes read in parallel across the die pool: latencies draw in
	// stripe order now, and each stripe starts one queue hop later.
	io.remaining = stripes
	for i := 0; i < stripes; i++ {
		s := d.getStripe(io, d.jitter(d.cfg.NANDReadLatency))
		d.env.Schedule(0, s.startFn)
	}
}

func (io *ssdIO) dieAcquired(any) {
	if io.alias != 0 {
		io.d.met.SpanWaitDev(io.alias, timeline.WaitDie, int64(io.d.env.Now()-io.acq0))
	}
	io.d.after(io.lat, io.dieDoneFn)
}

func (io *ssdIO) dieDone() {
	io.d.dies.Release()
	io.nandDone()
}

// nandDone books the internal read bus: this pacer is what bounds
// sequential read bandwidth at the paper's 3.3 GB/s. For the multi-stripe
// path it runs one hop after the last stripe's release (see
// nandStripe.done).
func (io *ssdIO) nandDone() {
	d := io.d
	done := d.readPacer.Reserve(int64(io.n))
	d.after(done-d.env.Now(), io.readPacedFn)
}

// readPaced ends the media phase and pushes the data upstream through the
// port, per PRP segment. A misdirected read serves the neighbouring block's
// bytes (an FTL mapping slip): only the data source shifts — timing, stats
// and status describe the block that was asked for. A corrupt read flips one
// byte mid-way through the first segment, deep enough into the block to land
// in payload body rather than any caller-side header, modelling corruption
// the device's ECC missed.
func (io *ssdIO) readPaced() {
	d := io.d
	io.media = d.env.Now() - io.mt0
	src := io.devByte
	if io.hzd.misdirect {
		src += BlockSize
	}
	corrupt := io.hzd.corrupt
	var last sim.Time
	off := 0
	for _, seg := range io.segs {
		var data []byte
		if d.cfg.CaptureData {
			if cap(io.dbuf) < seg.Len {
				io.dbuf = make([]byte, seg.Len)
			}
			data = d.readBytesInto(io.dbuf[:seg.Len], src+uint64(off), seg.Len)
			if corrupt && len(data) > 0 {
				data[len(data)/2] ^= 0xA5
				corrupt = false
			}
		}
		if t := d.port.DMAWrite(seg.Addr, seg.Len, data); t > last {
			last = t
		}
		off += seg.Len
	}
	d.after(last-d.env.Now(), io.readOutFn)
}

func (io *ssdIO) readOut() {
	d := io.d
	d.ReadStats.Record(io.n, d.env.Now()-io.t0)
	d.mReadOps.Inc()
	d.mReadBytes.AddAt(int64(d.env.Now()), uint64(io.n))
	io.finishMedia()
}

// --- write path ---

// startWrite fetches the payload from upstream, all segments at once.
func (io *ssdIO) startWrite() {
	d := io.d
	var last sim.Time
	for i, seg := range io.segs {
		var buf []byte
		if d.cfg.CaptureData {
			buf = io.wbuf(i, seg.Len)
		}
		if t := d.port.DMARead(seg.Addr, seg.Len, buf); t > last {
			last = t
		}
	}
	d.after(last-d.env.Now(), io.writeFetchFn)
}

// writeFetched admits the write: the pacer models the flash program rate
// behind the cache, which bounds write bandwidth and IOPS.
func (io *ssdIO) writeFetched() {
	d := io.d
	io.mt0 = d.env.Now()
	if io.alias != 0 {
		// The pacer's backlog is the queueing delay this write will see
		// behind earlier writes' program time — the write-side analog of
		// read die-queue wait. Read before Reserve.
		d.met.SpanWaitDev(io.alias, timeline.WaitDie, int64(d.writePacer.Backlog()))
	}
	done := d.writePacer.Reserve(int64(io.n))
	d.after(done-d.env.Now(), io.writePacedFn)
}

// writePaced draws the cache jitter once the pacer wait completes and
// sleeps it out.
func (io *ssdIO) writePaced() {
	d := io.d
	d.after(d.jitter(d.cfg.WriteCacheLatency), io.writeDoneFn)
}

// writeDone persists the payload. A torn write persists only the first half
// while still completing with success: the tail keeps whatever bytes the
// media held before (power-cut tearing past the write cache).
func (io *ssdIO) writeDone() {
	d := io.d
	io.media = d.env.Now() - io.mt0
	if d.cfg.CaptureData {
		keep := io.n
		if io.hzd.torn {
			keep = io.n / 2
		}
		off := 0
		for i := range io.segs {
			if off >= keep {
				break
			}
			b := io.bufs[i]
			if off+len(b) > keep {
				b = b[:keep-off]
			}
			d.writeBytes(io.devByte+uint64(off), b)
			off += len(b)
		}
	}
	d.WriteStats.Record(io.n, d.env.Now()-io.t0)
	d.mWriteOps.Inc()
	d.mWriteBytes.AddAt(int64(d.env.Now()), uint64(io.n))
	io.finishMedia()
}

// wbuf returns the i-th pooled write segment buffer sized to n, zeroed so
// sparse source pages read back as zeroes.
func (io *ssdIO) wbuf(i, n int) []byte {
	for len(io.bufs) <= i {
		io.bufs = append(io.bufs, nil)
	}
	b := io.bufs[i]
	if cap(b) < n {
		b = make([]byte, n)
		io.bufs[i] = b
	}
	b = b[:n]
	io.bufs[i] = b
	for j := range b {
		b[j] = 0
	}
	return b
}

// finishMedia records media attribution and the completion trace record,
// then completes successfully.
func (io *ssdIO) finishMedia() {
	d := io.d
	if d.met != nil && io.media > 0 {
		d.mMedia.Record(int64(io.media))
		d.met.SpanMedia(obs.DevKey(d.cfg.Serial, io.sq.id, io.cmd.CID), int64(io.media))
		if io.alias != 0 {
			// Phase intervals derived from (t0, media, now): a read's
			// media phase leads and its upstream DMA follows; a write
			// fetches over DMA first and its media phase trails.
			now, m := int64(d.env.Now()), int64(io.media)
			if io.cmd.Opcode == nvme.IORead {
				d.met.SpanPhases(io.alias, int64(io.t0), int64(io.t0)+m, int64(io.t0)+m, now)
			} else {
				d.met.SpanPhases(io.alias, now-m, now, int64(io.t0), now-m)
			}
		}
	}
	if d.tr != nil {
		now := d.env.Now()
		d.tr.Emit(now, "ssd", "complete", uint64(io.cmd.Opcode)<<56|io.devByte, uint64(now-io.t0), d.cfg.Serial)
	}
	io.finish(nvme.StatusSuccess)
}

// finish posts the CQE and recycles the record.
func (io *ssdIO) finish(status nvme.Status) {
	d := io.d
	var cpl nvme.Completion
	cpl.CID = io.cmd.CID
	cpl.SQID = io.sq.id
	cpl.SQHead = uint16(io.sqHead)
	cpl.Status = status
	cqid := io.sq.cqid
	d.putIO(io)
	d.postCQE(cqid, cpl)
}
