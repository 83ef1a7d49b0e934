package registry

import (
	"math"
	"testing"
)

// FuzzParseCadenceSpec: ParseCadenceSpec never panics, and every
// override it accepts is positive and finite; so is every base, but for
// the 0 of a spec that sets none.
func FuzzParseCadenceSpec(f *testing.F) {
	for _, s := range []string{
		// The README's examples, and the shapes around them.
		"5,agg=50", "10", "agg=50", "5", "", "sc=1,hops=2.5,dht=1e3",
		"5,5", "agg=50,aggregation=5", "NaN", "Inf", "agg=-1", "bogus=3", " 7 , poll = 0.5 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		base, overrides, err := ParseCadenceSpec(spec)
		if err != nil {
			return
		}
		if !(base >= 0) || math.IsInf(base, 0) {
			t.Fatalf("ParseCadenceSpec(%q): base %v", spec, base)
		}
		for name, v := range overrides {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("ParseCadenceSpec(%q): cadence %v for %s", spec, v, name)
			}
		}
	})
}
