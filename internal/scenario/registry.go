package scenario

import (
	"fmt"
	"slices"
)

// Get returns the named built-in scenario.
func Get(name string) (Scenario, bool) {
	for _, s := range builtins {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Names returns every built-in name, sorted.
func Names() []string {
	out := make([]string, len(builtins))
	for i, s := range builtins {
		out[i] = s.Name
	}
	return out
}

// All returns every built-in scenario, sorted by name.
func All() []Scenario { return slices.Clone(builtins) }

// Resolve maps names to scenarios; nil or empty means the whole registry.
func Resolve(names []string) ([]Scenario, error) {
	if len(names) == 0 {
		return All(), nil
	}
	out := make([]Scenario, 0, len(names))
	for _, n := range names {
		s, ok := Get(n)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", n, Names())
		}
		out = append(out, s)
	}
	return out, nil
}
