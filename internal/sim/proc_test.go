package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// captured is a heap object with a finalizer. It is large enough to get its
// own allocation (the tiny allocator batches small pointer-free objects,
// and a batched object's finalizer may never run).
type captured struct {
	buf [256]byte
}

// spawnCapturing starts a process whose function captures a finalizable
// object, and returns the handle. It is a separate, non-inlined frame so
// the object is reachable only through the process function.
//
//go:noinline
func spawnCapturing(env *Env, freed chan<- struct{}) *Proc {
	obj := &captured{}
	runtime.SetFinalizer(obj, func(*captured) { close(freed) })
	return env.Go("holder", func(p *Proc) {
		p.Sleep(10)
		obj.buf[0]++
	})
}

// A finished process must drop its coroutine: a caller that keeps the *Proc
// handle and its Done event must not keep the function's captures alive.
// Rigs keep handles to their workers for the whole run, so a leak here
// shows up as peak heap.
func TestFinishedProcessReleasesCaptures(t *testing.T) {
	env := NewEnv(1)
	freed := make(chan struct{})
	p := spawnCapturing(env, freed)
	done := p.Done()
	env.Run()
	if !done.Processed() {
		t.Fatal("process did not finish")
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(p)
			runtime.KeepAlive(done)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("finished process still holds its function's captures")
}

// A process panic surfaces on the goroutine that called Run, named after the
// process, with the process already accounted as finished.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	env := NewEnv(1)
	p := env.Go("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		env.Run()
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, `sim: process "bad" panicked: boom`) {
		t.Fatalf("recovered %v, want the process panic", got)
	}
	if !p.Done().Triggered() {
		t.Fatal("panicked process's Done event not triggered")
	}
	if n := env.Blocked(); n != 0 {
		t.Fatalf("Blocked() = %d after the panic, want 0", n)
	}
}

// runtime.Goexit inside a process (t.Fatal, for one) exits the goroutine
// that called Run, after the process's Done event has been marked.
func TestProcessGoexitUnwindsRunCaller(t *testing.T) {
	env := NewEnv(1)
	p := env.Go("quitter", func(p *Proc) {
		p.Sleep(5)
		runtime.Goexit()
	})
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		env.Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned normally; want Goexit to unwind its caller")
	}
	if !p.Done().Triggered() {
		t.Fatal("exited process's Done event not triggered")
	}
	if n := env.Blocked(); n != 0 {
		t.Fatalf("Blocked() = %d after the Goexit, want 0", n)
	}
}
