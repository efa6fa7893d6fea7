package kernels

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ssmdvfs/internal/gpusim"
)

// goldenDigests pins the simulator's outputs: the SHA-256 of every
// EpochStats a run observes, in order, followed by its Result, each
// printed with %+v (shortest exact form for floats). Any change to the
// stepping core that moves one counter, stall tally, eviction or energy
// bit changes a digest. The digests were recorded before the issue loop
// and caches were optimised; a change meant to be exact leaves them be.
var goldenDigests = map[string]string{
	"parboil.cutcp/lrr":                 "36f71f3e25c1cc2ad7cb9cb48c78bcdf065b82c3565a81a28724492ccc2ceb8e",
	"parboil.cutcp/gto":                 "abbc0789728926d71f1a75ecf934dd096b6cd8e71aed05ec02ed707262ad826e",
	"parboil.cutcp/hopper":              "2b9085613dd63159ccf63611fc10417e4e2b6a6fa5bad54dc92caaf7d1db6e00",
	"parboil.cutcp/narrow":              "5cf25bdb984ca63c115255c696144285d50c479c75652ab375862e5fa7b509c5",
	"parboil.cutcp/breakpoint":          "7ead2e1dac90dd6871d36c9038246c0c5ef5fd198eaf1820951bfd785c23cabd",
	"parboil.histo/lrr":                 "896e993057e1878d427e7acde10899d7210aa3de8fcbb5e976937a453a4170ed",
	"parboil.histo/gto":                 "bedd7ebd063a71f8afe4a8fd0eaf48904d93373bee5a49567ea8a4c5f316fc27",
	"parboil.histo/hopper":              "31897fb82ca297ed4947f35a9450952a7b48d21039b1880d116b8ae169e44efc",
	"parboil.histo/narrow":              "a11e6612c353cdd9634a6d2cd9599100446915f1a3bf2a90fe9a8c2c3c57f13c",
	"parboil.histo/breakpoint":          "9d3b67aec009598719c72f200af42a0726a9490e80eddc13ba83ec16cba4e804",
	"parboil.sad/lrr":                   "9ea49c15d05413c2bc4c65ea0cc6aa8646bd06265d4a741b3e760bc3555db487",
	"parboil.sad/gto":                   "0f2d0ff9bbe6419ac2972ecc11d4b9aeb8690497f5f2d30c8fbef772d340f947",
	"parboil.sad/hopper":                "676002cff6f9dfcd10170c6657b8e3fa5ec5e1b85292f4195db0ba860de9eefc",
	"parboil.sad/narrow":                "bf6a955301be0cd5a14aac6af6485eee2cc6220b8e13859e8adc3c4f078f828d",
	"parboil.sad/breakpoint":            "aec912697b2d54418afe90f3b5cf08653913cc7ba9766d87ab12b72acf56ef69",
	"parboil.stencil/lrr":               "0b98458a73daa97751fab5ed5a76674b18f9e07dcc5d3af322001c033c16e627",
	"parboil.stencil/gto":               "8e4bc48d7a880a1347b41dcc63a07008f1dff26f99dd95b0bffb327f7541bea7",
	"parboil.stencil/hopper":            "098f3ae6a6de53f383738920e532e6afbd8a3a44df39861a25073632edfda435",
	"parboil.stencil/narrow":            "29a6886163b0d044862008f5731bde4ef932d7bb42a15d261e066661c6c6938e",
	"parboil.stencil/breakpoint":        "288c439f3f24f507cedd45ed7a3e40514ac7902721bcaed09e3b4a4c179b5688",
	"rodinia.backprop/lrr":              "5aa1f909da0f2dca13f397a1084b43f087454372081ed950ff433d351ef70ff0",
	"rodinia.backprop/gto":              "8c67007d7bc8487191e890984d58e9ae0e82164f97d4e0919e75d13b9a21319d",
	"rodinia.backprop/hopper":           "34fbd57c7fdb9b815bbbb02ecaaf948dd1816f036d375bf938dbb4f67a5763e7",
	"rodinia.backprop/narrow":           "7efac94780298aa1a6f3a1db161e68c1d644da001dcd2a62e836716f471f82a2",
	"rodinia.backprop/breakpoint":       "2d1d4acb3948a8dfd6a55178a47453dad71f4292dabc8d5c530d006c1165c54d",
	"rodinia.particlefilter/lrr":        "a5326892156546018f8b0d13bc4477fecb265aa2d3b3a27d26c2bd067cf10753",
	"rodinia.particlefilter/gto":        "50846b36e152050949a0e85b8f548f4943d65aa208412b4a62a9903636230c6c",
	"rodinia.particlefilter/hopper":     "20dd6728bcd5f8f73b563b9f7b400f055ca119c3bde7e200fae6a9e66ea69bbf",
	"rodinia.particlefilter/narrow":     "4cf366d787ff3a1de5ee4f0fdbe61a0f0be87921f4eec770f4f3ef2a89203268",
	"rodinia.particlefilter/breakpoint": "8329432dd6702f13e27070e6841b0ee0960c9a1aecaf9d8281a5441cfeadc850",
	"tango.alexnet/lrr":                 "906a7c5d3077b635c8f8f8a9d53091fc238501a58c2446f53d65f55e1761c88c",
	"tango.alexnet/gto":                 "1959d60b9412139ca56311dda13587c917fcfcae7ed41ed500b1dbf2408ad202",
	"tango.alexnet/hopper":              "8bc25a24b35a15ec2fd36be87e4d2aa0caf11b5d6e2f65779c8898d21307d010",
	"tango.alexnet/narrow":              "495dc009d61c79c525d6ed8f29ead327e12a9db4a491ffe762054bb125cac626",
	"tango.alexnet/breakpoint":          "f4f1aca7e72b795e0a0e44077c764ffc581744ccd87ec59726e16f4653820c33",
}

// TestSimulatorMatchesGolden runs one kernel per behaviour class at scale
// 0.25 on SmallConfig under both warp schedulers, a level-hopping
// controller, narrow load/store queues and a Clone breakpoint, and
// compares each run's digest with goldenDigests. Unlike TestFastForwardMatchesCycleStepping,
// which compares the simulator with itself, this catches a change that
// alters the cycle both ways at once.
func TestSimulatorMatchesGolden(t *testing.T) {
	const (
		scale = 0.25
		maxPs = 5_000_000_000_000
	)
	base := gpusim.SmallConfig()
	hop := hopper{levels: base.OPs.Len()}

	type setup struct {
		name   string
		sched  gpusim.SchedulerPolicy
		ctrl   gpusim.Controller
		narrow bool
		// breakPs, when non-zero, clones the run there and finishes the
		// clone at the lowest operating point, as data generation does.
		breakPs int64
	}
	setups := []setup{
		{name: "lrr", sched: gpusim.SchedLRR},
		{name: "gto", sched: gpusim.SchedGTO},
		{name: "hopper", sched: gpusim.SchedLRR, ctrl: hop},
		{name: "narrow", sched: gpusim.SchedGTO, narrow: true},
		{name: "breakpoint", sched: gpusim.SchedGTO, ctrl: hop, breakPs: base.EpochPs*3/2 + 777},
	}

	seen := map[Behaviour]bool{}
	for _, spec := range Suite() {
		if seen[spec.Behaviour] {
			continue
		}
		seen[spec.Behaviour] = true
		k := spec.Build(scale)
		for _, su := range setups {
			name := fmt.Sprintf("%s/%s", spec.Name, su.name)
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
			h := sha256.New()
			sim.SetObserver(func(s gpusim.EpochStats) { fmt.Fprintf(h, "%+v\n", s) })
			if su.breakPs > 0 {
				sim.RunUntil(su.breakPs)
				sim = sim.Clone()
				sim.ForceLevel(0)
			}
			res := sim.Run(maxPs)
			if !res.Completed {
				t.Fatalf("%s did not complete: %+v", name, res)
			}
			fmt.Fprintf(h, "%+v\n", res)
			got := hex.EncodeToString(h.Sum(nil))
			if want := goldenDigests[name]; got != want {
				t.Errorf("%s: digest %s, want %s\n\t%q: %q,", name, got, want, name, got)
			}
		}
	}
}
