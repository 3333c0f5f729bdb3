package main

import (
	"container/heap"
	"time"
)

// The host this benchmark was defined on is a small shared virtual
// machine whose speed drifts by a quarter and more over minutes, in step
// for every workload: other tenants compete for the physical core, caches
// and memory. A run therefore also times a fixed calibration loop, which
// shares no code with the simulator, right before each window, and reports
// its end-to-end times at the loop's reference speed:
//
//	reported = measured * calibRefSeconds / median(calibration times)
//
// A change to the simulator moves the measured time and not the loop; a
// slower or busier host moves both. The raw host times are printed next to
// the reported ones.

// calibRefSeconds is the calibration loop's median time on the 2-vCPU
// machine the benchmark was defined on, so reported times read as host
// seconds on that machine.
const calibRefSeconds = 0.021

// calibShare is the share of the previous window's host time spent on
// calibration before the next window (at least one loop).
const calibShare = 0.05

// calibBufs is the loop's working set. It lives only for one calibrateFor
// call, so the collection before the window frees it before the live-heap
// reading.
type calibBufs struct {
	src, dst []byte
	walk     []uint32
	keep     [][]byte
	sink     uint32
}

// loop runs the calibration loop once. It mixes what the simulator spends
// its time on: a small discrete-event loop (a heap of timed closures),
// goroutine handoff over unbuffered channels, bulk copies, small
// allocations, and dependent random accesses over a working set larger
// than the caches. Of these, the event loop tracked the drift of the fio
// workloads most closely.
func (b *calibBufs) loop() {
	var q calibQueue
	var now int64
	x := uint64(88172645463325252)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if fired < 30000 {
			heap.Push(&q, calibEvent{at: now + int64(x%1000), fn: tick})
		}
	}
	for i := 0; i < 64; i++ {
		tick()
	}
	for q.Len() > 0 {
		ev := heap.Pop(&q).(calibEvent)
		now = ev.at
		ev.fn()
	}

	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := 0; i < 6000; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong // the echo goroutine has exited

	copy(b.dst, b.src)
	copy(b.src, b.dst)
	b.keep = b.keep[:0]
	for i := 0; i < 3000; i++ {
		b.keep = append(b.keep, make([]byte, 256))
	}
	y := uint32(2463534242)
	for i := 0; i < 100000; i++ {
		y ^= y << 13
		y ^= y >> 17
		y ^= y << 5
		j := y & (2<<20 - 1)
		b.walk[j] += b.sink
		b.sink += b.walk[(j*2654435761)&(2<<20-1)]
	}
}

type calibEvent struct {
	at int64
	fn func()
}

// calibQueue is a container/heap of events ordered by time.
type calibQueue []calibEvent

func (q calibQueue) Len() int           { return len(q) }
func (q calibQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calibQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x any)        { *q = append(*q, x.(calibEvent)) }
func (q *calibQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// calibrateFor times the loop until budget seconds are spent, at least
// once, after one untimed loop that faults the working set in.
func calibrateFor(budget float64) []float64 {
	b := &calibBufs{src: make([]byte, 4<<20), dst: make([]byte, 4<<20), walk: make([]uint32, 2<<20)}
	b.loop()
	var out []float64
	for spent := 0.0; len(out) == 0 || spent < budget; {
		start := time.Now()
		b.loop()
		t := time.Since(start).Seconds()
		out = append(out, t)
		spent += t
	}
	return out
}
