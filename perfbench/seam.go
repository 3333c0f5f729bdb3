package main

import (
	"time"

	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// maxIOSpans bounds the blockdev.io spans kept per run; the self-time split
// and the I/O counts cover every call regardless.
const maxIOSpans = 100_000

// span is one host-time interval recorded by the benchmark around a call
// into a layer. Times are nanoseconds since the run started.
type span struct {
	name       string
	rep        int
	start, end int64
	bytes      uint64 // blockdev.io only
	write      bool
}

// seam is the boundary between the applications (fio, kvstore, minidb and
// their drivers) and the storage stack below host.BlockDevice. Only one
// simulation process runs at a time, so host time between two consecutive
// crossings of the seam is charged to the side the last crossing entered:
// storage after a call, applications after a return. Scheduler work done
// while every client is blocked is charged the same way, so the split
// covers the window exactly.
type seam struct {
	clock *runClock
	rep   int
	on    bool // inside a measured window
	// counting is set from the first warm-up slice to the end of the
	// window, so opBytes covers the same span as the workload's op counts.
	counting bool
	opBytes  uint64

	last    int64
	below   bool
	appsNS  int64
	storeNS int64

	ios     uint64
	spans   []span
	dropped uint64
}

// open starts accounting at the window start.
func (s *seam) open(rep int, now int64) {
	s.rep = rep
	s.on = true
	s.last = now
	s.below = false
}

// close charges the tail of the window and stops accounting.
func (s *seam) close(now int64) {
	s.charge(now, false)
	s.on = false
	s.counting = false
}

func (s *seam) cross(below bool) int64 {
	now := s.clock.now()
	s.charge(now, below)
	return now
}

func (s *seam) charge(now int64, below bool) {
	if s.below {
		s.storeNS += now - s.last
	} else {
		s.appsNS += now - s.last
	}
	s.last = now
	s.below = below
}

func (s *seam) call(write bool, n uint64, io func() error) error {
	if s.counting {
		s.opBytes += n
	}
	if !s.on {
		return io()
	}
	start := s.cross(true)
	err := io()
	end := s.cross(false)
	s.ios++
	if len(s.spans) < maxIOSpans {
		s.spans = append(s.spans, span{name: "blockdev.io", rep: s.rep, start: start, end: end, bytes: n, write: write})
	} else {
		s.dropped++
	}
	return err
}

// seamDev is the host.BlockDevice the benchmark hands to fio, kvstore and
// minidb on layer runs.
type seamDev struct {
	dev host.BlockDevice
	s   *seam
}

func (d *seamDev) BlockSize() int         { return d.dev.BlockSize() }
func (d *seamDev) CapacityBlocks() uint64 { return d.dev.CapacityBlocks() }
func (d *seamDev) PerIOCPU() sim.Time     { return d.dev.PerIOCPU() }

func (d *seamDev) size(blocks uint32) uint64 { return uint64(blocks) * uint64(d.dev.BlockSize()) }

func (d *seamDev) ReadAt(p *sim.Proc, lba uint64, blocks uint32, buf []byte) error {
	return d.s.call(false, d.size(blocks), func() error { return d.dev.ReadAt(p, lba, blocks, buf) })
}

func (d *seamDev) WriteAt(p *sim.Proc, lba uint64, blocks uint32, data []byte) error {
	return d.s.call(true, d.size(blocks), func() error { return d.dev.WriteAt(p, lba, blocks, data) })
}

func (d *seamDev) Flush(p *sim.Proc) error {
	return d.s.call(true, 0, func() error { return d.dev.Flush(p) })
}

// runClock is the benchmark's host clock: monotonic nanoseconds since the
// run started.
type runClock struct{ t0 time.Time }

func (c *runClock) now() int64 { return int64(time.Since(c.t0)) }
