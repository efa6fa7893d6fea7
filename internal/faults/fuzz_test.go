package faults

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary fault specs to Parse. It must never panic;
// every site it arms must carry an in-range spec that fires at all
// (every >= 1 or a rate in (0,1]), and the armed sites written back out
// as a spec must parse to the same specs.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{"", "a:panic:every=97; b:latency:latency=2ms:rate=0.05 ;c:corrupt",
		"justasite", "a:nosuchkind", "a:error:every", "a:error:bogus=1", "a:error:rate=x",
		"serve.infer:panic:every=500;serve.conn:error:every=200;serve.decide:latency:every=300:latency=1ms:limit=4",
		"a:error:rate=NaN"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := Parse(spec, 1)
		if err != nil || inj == nil || len(*inj.sites.Load()) == 0 {
			return
		}
		sites := *inj.sites.Load()
		entries := make([]string, 0, len(sites))
		for name, st := range sites {
			sp := st.spec
			if !(sp.Rate >= 0 && sp.Rate <= 1) || sp.Every < 0 || sp.Limit < 0 || sp.Latency < 0 {
				t.Fatalf("site %q armed with out-of-range spec %+v", name, sp)
			}
			if sp.Every == 0 && sp.Rate == 0 {
				t.Fatalf("site %q armed with a spec that never fires: %+v", name, sp)
			}
			entries = append(entries, fmt.Sprintf("%s:%s:every=%d:rate=%s:latency=%s:limit=%d",
				name, sp.Kind, sp.Every, strconv.FormatFloat(sp.Rate, 'g', -1, 64), sp.Latency, sp.Limit))
		}
		again, err := Parse(strings.Join(entries, ";"), 1)
		if err != nil {
			t.Fatalf("re-rendered spec %q: %v", strings.Join(entries, ";"), err)
		}
		back := *again.sites.Load()
		if len(back) != len(sites) {
			t.Fatalf("re-rendered spec armed %d sites, want %d", len(back), len(sites))
		}
		for name, st := range sites {
			if b, ok := back[name]; !ok || b.spec != st.spec {
				t.Fatalf("site %q re-parsed as %+v, want %+v", name, back[name], st.spec)
			}
		}
	})
}
