// Model-trace pin: the data path's model-level trace records on a fixed set
// of rigs are pinned to committed SHA-256 digests. "Model-level" means every
// record except the kernel's own "sim" bookkeeping (spawn, resume, fire,
// abort), whose process IDs and event sequence numbers describe how the
// simulator executes rather than what the simulated system does. Every
// engine, SSD, host, controller and fault record — with its virtual
// timestamp, in emission order — is covered.
//
// The digests were recorded on the process-per-command data path the fused
// continuation chain replaced, so they prove the chain emits the same model
// records at the same program points, and they keep proving it for any later
// change to the kernel or the data path. A mismatch is an ordering bug in the
// code under test: fix it, never re-bless the digest.
package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"

	"bmstore"
	"bmstore/internal/chaos"
	"bmstore/internal/fault"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// modelTracePins holds the committed model-record digest of every pinned rig.
var modelTracePins = map[string]string{
	"bmstore":              "e3185028a70d8fd16d6376fc267a78c1308ab45dfe189cf6f43004d6a7cfebe7",
	"direct":               "5e0ddfdc3bde863b49e32dd3fc731e3b966ccf35469b35b16689a5dd71007dc4",
	"hot-upgrade":          "1d799924d7d95542726b6efb132e9d05bc07541a2867bc0b62b0c0fc76278822",
	"hot-plug":             "0a3af4dfbb476ec8119dd64ad089ca9ba0448fc18d70bfd7d8d1cad44c1c284c",
	"qos":                  "93a116ad712d37e5a7dca91503ba5812534899f4cb80be895c7846b4626de37d",
	"fault-hot-unplug":     "e9120496de64dc8e95ce37406809e2706ca47d87ed59474f7917560afa01225d",
	"fault-upgrade-stall":  "24d856bb63623eaf547a942bfddf70997af5dbbbfaff8ab9077c83a37ac89a5e",
	"chaos-data-faults":    "a8eb7caf1f1b0c8e785bddc550c34e3cde50c1fd3cdb77c57ccebfd6218930dc",
	"payload-round-trip":   "dcff357c04d8333673ef60f7c9b49e932d28462a8e1e777a38bab683dd173851",
	"stall-across-quiesce": "1df5e0e5053103ea8384c723f161c1a21c5d4c654e8118fdd16d5e0ae2f35ae3",
}

// modelHash is a trace dump destination that SHA-256s every record line
// except the kernel's "sim" records, and counts fault records by kind.
type modelHash struct {
	h       hash.Hash
	pending []byte
	faults  map[string]int
}

func newModelHash() *modelHash {
	return &modelHash{h: sha256.New(), faults: make(map[string]int)}
}

func (m *modelHash) Write(p []byte) (int, error) {
	m.pending = append(m.pending, p...)
	for {
		i := bytes.IndexByte(m.pending, '\n')
		if i < 0 {
			break
		}
		line := m.pending[:i+1]
		m.pending = m.pending[i+1:]
		// Dump lines read "<at> <subsys> <kind> a=… b=… <detail>".
		f := bytes.Fields(line)
		if len(f) < 3 || string(f[1]) == "sim" {
			continue
		}
		if string(f[1]) == "fault" {
			m.faults[string(f[2])]++
		}
		m.h.Write(line)
	}
	return len(p), nil
}

func (m *modelHash) sum() string { return hex.EncodeToString(m.h.Sum(nil)) }

// modelTrace runs a scenario with a dumping tracer and returns its
// model-record digest and fault-record counts.
func modelTrace(t *testing.T, s bmstore.Scenario) (string, map[string]int) {
	t.Helper()
	mh := newModelHash()
	tr := trace.New(trace.Options{Dump: mh})
	build := bmstore.NewBMStoreTestbed
	if s.Direct {
		build = bmstore.NewDirectTestbed
	}
	tb, err := build(s.Config, bmstore.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func(p *sim.Proc) { s.Body(tb, p) })
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return mh.sum(), mh.faults
}

// pinRecoveryDriver is the recovering tenant driver of the fault rigs.
func pinRecoveryDriver() host.DriverConfig {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = 3 * sim.Millisecond
	dcfg.MaxRetries = 10
	dcfg.RetryBackoff = 200 * sim.Microsecond
	return dcfg
}

// pinFaultCfg is smallCfg with a short firmware window and fault rules.
func pinFaultCfg(seed int64, numSSDs int, rules ...fault.Rule) bmstore.Config {
	cfg := smallCfg(seed, numSSDs)
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510("TB" + string(rune('A'+i)))
		c.CapacityBytes = 1 << 30
		c.FWCommitMin = 10 * sim.Millisecond
		c.FWCommitMax = 15 * sim.Millisecond
		return c
	}
	return cfg.With(bmstore.WithFaults(rules...))
}

// pinHotUnplug: the namespace's SSD is surprise-removed at 5 ms under two
// fio jobs and replaced over the console at 9 ms.
func pinHotUnplug() bmstore.Scenario {
	return bmstore.Scenario{
		Config: pinFaultCfg(42, 2, fault.Rule{
			Point: fault.SSDDrop, Target: "TBB", At: int64(5 * sim.Millisecond),
		}),
		Body: func(tb *bmstore.Testbed, p *sim.Proc) {
			if err := tb.Console.CreateNamespace(p, "vol", 64<<20, []int{1}); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, "vol", 0); err != nil {
				panic(err)
			}
			drv, err := tb.AttachTenant(p, 0, pinRecoveryDriver())
			if err != nil {
				panic(err)
			}
			tb.Go("operator", func(op *sim.Proc) {
				op.Sleep(9 * sim.Millisecond)
				if err := tb.Console.HotPlugPrepare(op, 1); err != nil {
					panic(err)
				}
				rc := ssd.P4510("REPLACE01")
				rc.CapacityBytes = 1 << 30
				dev, link := tb.NewSSD(rc)
				if err := tb.Controller.PhysicalSwap(op, 1, dev, link); err != nil {
					panic(err)
				}
				if err := tb.Console.HotPlugComplete(op, 1); err != nil {
					panic(err)
				}
			})
			fio.Run(p, []host.BlockDevice{drv.BlockDev(0), drv.BlockDev(1)}, fio.Spec{
				Name: "unplug", Pattern: fio.RandRead, BlockSize: 4096,
				IODepth: 4, NumJobs: 2, Runtime: 25 * sim.Millisecond,
			})
		},
	}
}

// pinUpgradeStall: a firmware hot-upgrade under fio (image download from
// ~4.6 ms, quiesce from ~13 ms) while the engine's backend submitter is
// stalled for [at, at+dur).
func pinUpgradeStall(at, dur sim.Time) bmstore.Scenario {
	return bmstore.Scenario{
		Config: pinFaultCfg(42, 1, fault.Rule{
			Point: fault.BackendSubmit, Target: "TBA", At: int64(at), Duration: int64(dur),
		}),
		Body: func(tb *bmstore.Testbed, p *sim.Proc) {
			if err := tb.Console.CreateNamespace(p, "vol", 64<<20, []int{0}); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, "vol", 0); err != nil {
				panic(err)
			}
			drv, err := tb.AttachTenant(p, 0, pinRecoveryDriver())
			if err != nil {
				panic(err)
			}
			tb.Go("operator", func(op *sim.Proc) {
				op.Sleep(4 * sim.Millisecond)
				if _, err := tb.Console.HotUpgrade(op, 0, "VDV10200", 256); err != nil {
					panic(err)
				}
			})
			fio.Run(p, []host.BlockDevice{drv.BlockDev(0), drv.BlockDev(1)}, fio.Spec{
				Name: "upgrade", Pattern: fio.RandRW, BlockSize: 4096,
				IODepth: 4, NumJobs: 2, Runtime: 40 * sim.Millisecond,
			})
		},
	}
}

// pinRoundTrip: payload capture on, 4 KiB random I/O, then 128 KiB
// sequential writes (PRP-list walks in the engine and the SSD, sub-command
// splits across the two SSDs), a flush fan-out, and a payload round trip
// after thousands of pooled-buffer reuses.
func pinRoundTrip() bmstore.Scenario {
	cfg := smallCfg(11, 2)
	cfg.CaptureData = true
	return bmstore.Scenario{
		Config: cfg,
		Body: func(tb *bmstore.Testbed, p *sim.Proc) {
			if err := tb.Console.CreateNamespace(p, "vol", 64<<20, []int{0, 1}); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, "vol", 0); err != nil {
				panic(err)
			}
			drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
			if err != nil {
				panic(err)
			}
			devs := []host.BlockDevice{drv.BlockDev(0), drv.BlockDev(1)}
			fio.Run(p, devs, fio.Spec{
				Name: "rt-randrw", Pattern: fio.RandRW, BlockSize: 4096,
				IODepth: 16, NumJobs: 2, Runtime: 4 * sim.Millisecond,
			})
			fio.Run(p, devs, fio.Spec{
				Name: "rt-seq", Pattern: fio.SeqWrite, BlockSize: 128 << 10,
				IODepth: 8, NumJobs: 2, Runtime: 4 * sim.Millisecond,
			})
			bd := drv.BlockDev(0)
			data := make([]byte, 64<<10)
			for i := range data {
				data[i] = byte(i * 7)
			}
			if err := bd.WriteAt(p, 900, 16, data); err != nil {
				panic(err)
			}
			if err := bd.(interface{ Flush(*sim.Proc) error }).Flush(p); err != nil {
				panic(err)
			}
			got := make([]byte, len(data))
			if err := bd.ReadAt(p, 900, 16, got); err != nil {
				panic(err)
			}
			if !bytes.Equal(got, data) {
				panic("payload round trip corrupted the data")
			}
		},
	}
}

// pinChaosSchedule fires every data-path fault kind on the chaos campaign's
// two-SSD, payload-capturing rig under the write-then-verify workload.
func pinChaosSchedule() chaos.Schedule {
	return chaos.Schedule{Seed: 4242, Hazard: true, Rules: []fault.Rule{
		{Point: fault.SSDMediaRead, Target: "CH0", At: 1_000_000, Nth: 3, Count: 2, Duration: 200_000, Status: 0x06},
		{Point: fault.WriteTorn, Target: "CH0", At: 1_000_000, Nth: 2, Count: 1},
		{Point: fault.MediaCorrupt, Target: "CH0", At: 1_200_000, Nth: 2, Count: 1},
		{Point: fault.ReadMisdirect, Target: "CH0", At: 2_000_000, Nth: 4, Count: 1},
		{Point: fault.SSDStall, Target: "CH0", At: 2_500_000, Duration: 300_000},
		{Point: fault.BackendSubmit, Target: "CH0", At: 2_900_000, Duration: 300_000},
	}}
}

// TestDeterminismModelTracePin checks every pinned rig's model-record
// digest, and that the chaos rig really fired each data-path fault kind.
func TestDeterminismModelTracePin(t *testing.T) {
	scenarios := allScenarios()
	scenarios["fault-hot-unplug"] = pinHotUnplug()
	scenarios["fault-upgrade-stall"] = pinUpgradeStall(2*sim.Millisecond, 5*sim.Millisecond)
	// The stall ends while the quiesce gate is closed: stalled submissions
	// must park on the gate again instead of pushing to a resetting SSD.
	scenarios["stall-across-quiesce"] = pinUpgradeStall(11*sim.Millisecond, 8*sim.Millisecond)
	scenarios["payload-round-trip"] = pinRoundTrip()
	got := make(map[string]string)
	for name, s := range scenarios {
		got[name], _ = modelTrace(t, s)
	}

	mh := newModelHash()
	tr := trace.New(trace.Options{Dump: mh})
	bmstore.RunChaosSchedule(pinChaosSchedule(), bmstore.ChaosOptions{}, tr, nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got["chaos-data-faults"] = mh.sum()
	for _, kind := range []string{"media", "media-corrupt", "misdirected-read", "torn-write", "ssd-stall", "backend-stall"} {
		if mh.faults[kind] == 0 {
			t.Errorf("chaos rig fired no %s fault (fault records: %v)", kind, mh.faults)
		}
	}

	for name, want := range modelTracePins {
		if got[name] != want {
			t.Errorf("%s: model-record digest %s, pinned %s", name, got[name], want)
		}
	}
	if len(got) != len(modelTracePins) {
		t.Errorf("ran %d rigs, %d pinned", len(got), len(modelTracePins))
	}
}
