package sim

// Proc is a simulation process: sequential code that advances virtual time
// by blocking on events. All Proc methods must be called from within the
// process's own function.
type Proc struct {
	env  *Env
	id   uint64 // spawn sequence number; orders deterministic shutdown
	name string
	// next switches into the process's coroutine and suspend switches back
	// out: the two halves of one iter.Pull pair. msg carries the resume
	// message across the switch. Both funcs are cleared when the process
	// finishes, so a retained *Proc does not keep fn's captures alive.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	msg     resumeMsg
	done    bool
	doneEv  *Event
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Done returns an event that fires when the process function returns.
func (p *Proc) Done() *Event { return p.doneEv }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// yield switches from the process's coroutine back to the scheduler and
// returns the message of the next resume. The switch is a direct coroutine
// transfer on the scheduler's thread, with no run-queue round trip.
func (p *Proc) yield() resumeMsg {
	p.suspend(struct{}{})
	m := p.msg
	p.msg = resumeMsg{} // drop the event value; it is the caller's now
	if m.abort {
		panic(errAborted)
	}
	return m
}

// Wait blocks until ev fires and returns its value. If ev already fired,
// Wait returns immediately without advancing time.
func (p *Proc) Wait(ev *Event) any {
	if ev.processed {
		return ev.val
	}
	ev.waiters = append(ev.waiters, p)
	return p.yield().val
}

// Sleep advances the process's local time by d. The timer event comes from
// the environment's free list — it never escapes this function, so it is
// recycled as soon as it fires, keeping Sleep allocation-free at steady
// state.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	e := p.env
	ev := e.pooledEvent()
	ev.pending = true
	ev.waiters = append(ev.waiters, p)
	e.push(e.now+d, ev)
	p.yield()
}

// WaitAny blocks until the first of evs fires and returns that event. Events
// that already fired win immediately (earliest in the argument list).
func (p *Proc) WaitAny(evs ...*Event) *Event {
	for _, ev := range evs {
		if ev.processed {
			return ev
		}
	}
	for _, ev := range evs {
		ev.waiters = append(ev.waiters, p)
	}
	m := p.yield()
	// Remove p from the other events' waiter lists so a later firing does
	// not try to resume a process that moved on.
	for _, ev := range evs {
		if ev == m.ev {
			continue
		}
		ev.removeWaiter(p)
	}
	return m.ev
}

// WaitTimeout waits for ev at most d. It returns the event value and true if
// ev fired first, or nil and false on timeout.
func (p *Proc) WaitTimeout(ev *Event, d Time) (any, bool) {
	to := p.env.Timeout(d, nil)
	won := p.WaitAny(ev, to)
	if won == ev {
		to.Abort()
		return ev.val, true
	}
	return nil, false
}

func (ev *Event) removeWaiter(p *Proc) {
	for i, w := range ev.waiters {
		if w == p {
			ev.waiters = append(ev.waiters[:i], ev.waiters[i+1:]...)
			return
		}
	}
}
