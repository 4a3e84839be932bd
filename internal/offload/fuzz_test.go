package offload

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParsePolicy: the flag-parsing shim must never panic, must reject
// everything but the documented names, and every accepted name must
// round-trip through Policy.Name.
func FuzzParsePolicy(f *testing.F) {
	for name := range policies {
		f.Add(name)
	}
	f.Add("")
	f.Add("model-guided ")
	f.Add("MODEL-GUIDED")
	f.Add("always-cpu\x00")
	f.Add(strings.Repeat("split", 1000))
	f.Fuzz(func(t *testing.T, name string) {
		p, err := ParsePolicy(name)
		if err != nil {
			if p != nil {
				t.Fatalf("ParsePolicy(%q) returned both a policy and an error", name)
			}
			if utf8.ValidString(name) && !strings.Contains(err.Error(), "unknown policy") {
				t.Fatalf("ParsePolicy(%q) error lost its shape: %v", name, err)
			}
			return
		}
		if p == nil {
			t.Fatalf("ParsePolicy(%q): nil policy without error", name)
		}
		if p.Name() != name {
			t.Fatalf("ParsePolicy(%q) resolved to %q", name, p.Name())
		}
		again, err := ParsePolicy(p.Name())
		if err != nil || again != p {
			t.Fatalf("ParsePolicy(%q) does not round-trip: %v", name, err)
		}
	})
}

// FuzzParseConstraint: the -constraints flag parser must never panic,
// must return exactly one of a constraint and an error, and every
// accepted expression must round-trip through Constraint.Name.
func FuzzParseConstraint(f *testing.F) {
	f.Add("avoid=gpu/prev")
	f.Add("cap=gpu/*:8")
	f.Add("cap=gpu/*:-1")
	f.Add("cap=:3")
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseConstraint(s)
		if err != nil {
			if c != nil {
				t.Fatalf("ParseConstraint(%q) returned both a constraint and an error", s)
			}
			return
		}
		if c == nil {
			t.Fatalf("ParseConstraint(%q): nil constraint without error", s)
		}
		again, err := ParseConstraint(c.Name())
		if err != nil {
			t.Fatalf("ParseConstraint(%q).Name() = %q does not parse: %v", s, c.Name(), err)
		}
		if again.Name() != c.Name() {
			t.Fatalf("ParseConstraint(%q) does not round-trip: %q then %q", s, c.Name(), again.Name())
		}
	})
}
