package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"bmstore/internal/sim"
)

// testWindow keeps the simulated windows of the tests short.
func testWindow(w *workload) sim.Time {
	if w.apps {
		return 20 * sim.Millisecond
	}
	return 5 * sim.Millisecond
}

// TestSlicedRunMatchesTestbedRun drives each workload's rig once the way
// the benchmark does (phase events, then Env.RunUntil slices) and once
// through Testbed.Run, and requires the same simulated-result digest:
// stepping the simulation from outside must not perturb the model.
func TestSlicedRunMatchesTestbedRun(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if w.apps && testing.Short() {
				t.Skip("application dataset load is slow")
			}
			d := &driver{w: w, seed: 3, clock: &runClock{t0: time.Now()}, window: testWindow(w)}
			st, err := d.rep(repMeasured)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.slices) < 2 {
				t.Fatalf("window took %d slices, want several", len(st.slices))
			}
			r, err := newRig(w, 3, rigOpts{window: testWindow(w)})
			if err != nil {
				t.Fatal(err)
			}
			r.tb.Run(r.body)
			if r.res.err != nil {
				t.Fatal(r.res.err)
			}
			if got := r.res.digest(); got != st.digest {
				t.Fatalf("Testbed.Run digest %s, sliced digest %s", got, st.digest)
			}
		})
	}
}

// TestFusedAndDigestTracedAgree is the family rule of the oracle: the two
// fio workloads differ only in the observer, so their results are equal.
func TestFusedAndDigestTracedAgree(t *testing.T) {
	d := &driver{seed: 5, clock: &runClock{t0: time.Now()}}
	if err := d.crossCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestLayerMapCoversEveryPackage walks the repository's internal/ tree and
// requires every Go package in it to be placed in a layer, so a new package
// cannot silently land in "other".
func TestLayerMapCoversEveryPackage(t *testing.T) {
	root := filepath.Join("..", "internal")
	seen := 0
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		files, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				rel, err := filepath.Rel("..", path)
				if err != nil {
					return err
				}
				pkg := "bmstore/" + filepath.ToSlash(rel)
				if _, ok := layerOf[pkg]; !ok {
					t.Errorf("package %s has no layer in layerOf", pkg)
				}
				seen++
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 20 {
		t.Fatalf("found only %d packages under %s", seen, root)
	}
	for _, l := range layerOf {
		if !contains(profileLayers, l) {
			t.Errorf("layer %q is mapped to but not reported", l)
		}
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// TestSeamSelfTimesSumToWindow runs a traced rep and checks that the time
// above and below the block-device seam partitions the measured window
// exactly, and that every I/O was seen.
func TestSeamSelfTimesSumToWindow(t *testing.T) {
	w, _ := workloadByName("fio-4k-fused")
	d := &driver{w: w, seed: 2, clock: &runClock{t0: time.Now()}, window: testWindow(w)}
	st, err := d.rep(repLayers)
	if err != nil {
		t.Fatal(err)
	}
	var window *span
	for i := range d.spans {
		if d.spans[i].name == "window" {
			window = &d.spans[i]
		}
	}
	if window == nil {
		t.Fatal("no window span")
	}
	l := st.layers
	if got, want := l.appsNS+l.storeNS, window.end-window.start; got != want {
		t.Fatalf("apps %d + storage %d = %d ns, window is %d ns", l.appsNS, l.storeNS, got, want)
	}
	if l.appsNS <= 0 || l.storeNS <= 0 {
		t.Fatalf("one side of the seam is empty: apps %d storage %d", l.appsNS, l.storeNS)
	}
	// The window excludes the warm-up slices, and I/Os in flight at its
	// end (at most QD32 x 4 jobs) complete after fio stopped counting.
	if l.ios == 0 || l.ios > st.attempted+4*32 {
		t.Fatalf("seam saw %d I/Os in the window, fio completed %d in all", l.ios, st.attempted)
	}
	if want := 4096 * float64(st.attempted); math.Abs(float64(l.devBytes)-want) > 4096*4*32 {
		t.Fatalf("seam moved %d bytes over the whole window, fio completed %d 4 KiB I/Os", l.devBytes, st.attempted)
	}
	for _, s := range d.spans {
		if s.end < s.start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
}

// spin burns CPU in this package, so the profile decoder can be checked
// against a known answer.
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

func TestProfileDecoderChargesOwnPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sink = spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := profileSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range got {
		total += v
	}
	if got["bench"] < 0.5*total || total < 0.2 {
		t.Fatalf("bench charged %.2fs of %.2fs sampled: %v", got["bench"], total, got)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"bmstore/internal/engine.(*Engine).dispatch"}, "engine"},
		{[]string{"bmstore/internal/apps/kvstore.(*Store).Get.func1"}, "apps.kvstore"},
		{[]string{"runtime.memmove", "bmstore/internal/hostmem.(*Memory).Write"}, rtMemmove},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, rtGC},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, rtHandoff},
		{[]string{"runtime.mallocgc", "bmstore/internal/apps/minidb.encodeRedo"}, rtOther},
		{[]string{"math/rand.(*Rand).Int63"}, "stdlib"},
		{[]string{"bmstore/internal/newpkg.F"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestOracleHasHeldOutSeed checks the committed oracle's shape: every
// workload family has expectations for at least two seeds, one of which
// is the held-out seed.
func TestOracleHasHeldOutSeed(t *testing.T) {
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		seeds := o.Digests[w.family()]
		if len(seeds) < 2 {
			t.Errorf("%s: %d committed seeds, want at least 2", w.family(), len(seeds))
		}
		if _, ok := seeds[strconv.FormatInt(o.HeldOut, 10)]; !ok {
			t.Errorf("%s: held-out seed %d has no expectation", w.family(), o.HeldOut)
		}
	}
}

// TestHeldOutSeedMatchesOracle reruns the held-out seed of the fio family
// and compares it with the committed digest.
func TestHeldOutSeedMatchesOracle(t *testing.T) {
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fio-4k-fused", "fio-4k-digest"} {
		w, _ := workloadByName(name)
		want, ok := o.expect(w, o.HeldOut)
		if !ok {
			t.Fatalf("%s: no expectation for the held-out seed", name)
		}
		d := &driver{w: w, seed: o.HeldOut, clock: &runClock{t0: time.Now()}}
		st, err := d.rep(repMeasured)
		if err != nil {
			t.Fatal(err)
		}
		if st.digest != want {
			t.Fatalf("%s seed %d: digest %s, oracle %s", name, o.HeldOut, st.digest, want)
		}
	}
}
