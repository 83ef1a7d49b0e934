package fault

import (
	"math"
	"testing"
)

// FuzzParseSpec: whatever ParseSpec accepts is a valid Spec whose
// String() parses back to a spec with the same String().
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		// The README's examples.
		"drop=0.05", "delay=2x", "dup=0.01", "partition@40-60", "partition=0.3@40-60",
		"lie=10@0.05", "silent=0.1", "sybil=0.2", "nat=0.2",
		"drop=0.05,delay=2x", "sybil=0.2,silent=0.1", "drop=0.05,silent=0.1",
		"", " , ", "delay=2", "lie=3", "partition=0.5@0.4-0.6",
		"drop=NaN", "lie=Inf@0.1", "delay=+Inf", "partition@NaN-60",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid spec: %v", spec, err)
		}
		for name, v := range specFields(&s) {
			if math.IsNaN(*v) || math.IsInf(*v, 0) {
				t.Fatalf("ParseSpec(%q) accepted %s = %g", spec, name, *v)
			}
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q).String() = %q does not parse: %v", spec, s.String(), err)
		}
		if again.String() != s.String() {
			t.Fatalf("ParseSpec(%q): String %q re-parses to %q", spec, s.String(), again.String())
		}
	})
}
