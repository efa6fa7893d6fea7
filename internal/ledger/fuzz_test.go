package ledger

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseRules feeds arbitrary alert specs to ParseRules. It must never
// panic; every rule it accepts must have a known kind and a finite
// threshold, and the accepted set, defaults applied, written back out as
// a spec must parse to the same rules.
func FuzzParseRules(f *testing.F) {
	for _, spec := range []string{"", "none", "burn>1.2@32/100; stale>10", "regress>0.5",
		"burn", "frobnicate>1", "burn>x", "burn>1@x", "burn>1@4/x", "burn>NaN", "stale>Inf"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseRules(spec)
		if err != nil || len(rules) == 0 {
			return
		}
		clauses := make([]string, len(rules))
		for i := range rules {
			rules[i] = rules[i].withDefaults()
			r := rules[i]
			switch r.Kind {
			case KindBurn, KindRegress, KindStale:
			default:
				t.Fatalf("rule %d has unknown kind %q", i, r.Kind)
			}
			if math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0) {
				t.Fatalf("rule %d has non-finite threshold %v", i, r.Threshold)
			}
			if r.Windows <= 0 || r.MinDecisions <= 0 || r.Name != string(r.Kind) {
				t.Fatalf("rule %d is missing defaults: %+v", i, r)
			}
			clauses[i] = fmt.Sprintf("%s>%s@%d/%d", r.Kind,
				strconv.FormatFloat(r.Threshold, 'g', -1, 64), r.Windows, r.MinDecisions)
		}
		again, err := ParseRules(strings.Join(clauses, ";"))
		if err != nil {
			t.Fatalf("re-rendered spec %q: %v", strings.Join(clauses, ";"), err)
		}
		if fmt.Sprint(again) != fmt.Sprint(rules) {
			t.Fatalf("re-rendered spec parses to %+v, want %+v", again, rules)
		}
	})
}
