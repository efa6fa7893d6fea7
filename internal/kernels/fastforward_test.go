package kernels

import (
	"fmt"
	"reflect"
	"testing"

	"ssmdvfs/internal/gpusim"
)

// hopper moves every cluster to the next operating point at every epoch
// boundary, so each epoch opens with an IVR stall (frequency-only or
// voltage, depending on the pair) for the simulator to skip.
type hopper struct{ levels int }

func (h hopper) Name() string                       { return "hopper" }
func (h hopper) Decide(stats gpusim.EpochStats) int { return (stats.Level + 1) % h.levels }

// stepTo drives sim to targetPs in RunUntil calls stepPs apart. With
// stepPs the table's shortest clock period, no call spans more than one
// tick of any cluster, so the simulator never repeats an idle cycle in
// bulk: this is cycle-by-cycle stepping through the same code.
func stepTo(sim *gpusim.Simulator, targetPs, stepPs int64) {
	for t := sim.NowPs(); !sim.Done() && t < targetPs; {
		t = min(t+stepPs, targetPs)
		sim.RunUntil(t)
	}
}

// TestFastForwardMatchesCycleStepping checks that skipping idle cycles is
// exact: over the whole suite, a free-running Run must produce the same
// Result and the same sequence of EpochStats as the same simulation
// stepped one cycle at a time. The setups cover both warp schedulers, no
// controller, a controller that changes level every epoch (IVR stalls),
// full load and store queues, and a data-generation style Clone and
// ForceLevel at a breakpoint that is not aligned to an epoch.
func TestFastForwardMatchesCycleStepping(t *testing.T) {
	const (
		scale = 0.25
		maxPs = 5_000_000_000_000
	)
	base := gpusim.SmallConfig()
	stepPs := base.OPs.Point(base.OPs.Default()).PeriodPs()
	hop := hopper{levels: base.OPs.Len()}

	type setup struct {
		name  string
		sched gpusim.SchedulerPolicy
		ctrl  gpusim.Controller
		// narrow leaves eight MSHRs and four store-queue slots, so cycles
		// stall with every load or store slot taken.
		narrow bool
		// breakPs, when non-zero, clones the run there and finishes the
		// clone at the lowest operating point instead.
		breakPs int64
	}
	setups := []setup{
		{name: "lrr", sched: gpusim.SchedLRR},
		{name: "gto", sched: gpusim.SchedGTO},
		{name: "hopper", sched: gpusim.SchedLRR, ctrl: hop},
		{name: "narrow", sched: gpusim.SchedLRR, narrow: true},
		{name: "breakpoint", sched: gpusim.SchedGTO, ctrl: hop, breakPs: base.EpochPs*3/2 + 777},
	}

	// run simulates k under su, advancing with advance, and returns the
	// result and every epoch snapshot observed.
	run := func(t *testing.T, k gpusim.Kernel, su setup, advance func(*gpusim.Simulator, int64)) (gpusim.Result, []gpusim.EpochStats) {
		t.Helper()
		cfg := base
		cfg.Scheduler = su.sched
		if su.narrow {
			cfg.MSHRs, cfg.StoreQueue = 8, 4
		}
		sim, err := gpusim.New(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetController(su.ctrl)
		var seen []gpusim.EpochStats
		sim.SetObserver(func(s gpusim.EpochStats) { seen = append(seen, s) })
		if su.breakPs > 0 {
			advance(sim, su.breakPs)
			sim = sim.Clone()
			sim.ForceLevel(0)
		}
		advance(sim, maxPs)
		return sim.Run(maxPs), seen
	}
	free := func(sim *gpusim.Simulator, targetPs int64) { sim.RunUntil(targetPs) }
	stepped := func(sim *gpusim.Simulator, targetPs int64) { stepTo(sim, targetPs, stepPs) }

	// Each kernel runs under one setup, rotating in name order, which
	// keeps the test fast and spreads the kernel classes over the setups.
	for i, spec := range Suite() {
		su := setups[i%len(setups)]
		t.Run(fmt.Sprintf("%s/%s", spec.Name, su.name), func(t *testing.T) {
			k := spec.Build(scale)
			gotRes, gotStats := run(t, k, su, free)
			wantRes, wantStats := run(t, k, su, stepped)
			if !wantRes.Completed {
				t.Fatalf("stepped run did not complete: %+v", wantRes)
			}
			if su.breakPs >= wantRes.ExecTimePs {
				t.Fatalf("breakpoint %d ps is past the end of the run (%d ps)", su.breakPs, wantRes.ExecTimePs)
			}
			if gotRes != wantRes {
				t.Errorf("Result differs:\n  fast-forward %+v\n  stepped      %+v", gotRes, wantRes)
			}
			if len(gotStats) != len(wantStats) {
				t.Fatalf("observed %d epoch snapshots, stepped run %d", len(gotStats), len(wantStats))
			}
			for j := range gotStats {
				if !reflect.DeepEqual(gotStats[j], wantStats[j]) {
					t.Fatalf("snapshot %d differs:\n  fast-forward %+v\n  stepped      %+v", j, gotStats[j], wantStats[j])
				}
			}
		})
	}
}
