package uncertain

import (
	"bytes"
	"testing"
)

// FuzzParseSpec drives the strict spec decoder with arbitrary bytes: it
// must never panic, and any input it accepts must round-trip — encode then
// re-parse to the identical spec (the JSON contract /v1/solve bodies rely
// on).
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"rateSigma":0.2,"samples":64,"confidence":0.95,"seed":1}`))
	f.Add([]byte(`{"burstSigma":0.1,"lossTarget":0.5,"targetFactor":2}`))
	f.Add([]byte(`{"samples":-1}`))
	f.Add([]byte(`{"unknown":true}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted spec %+v failed to encode: %v", s, err)
		}
		back, err := ParseSpec(buf.Bytes())
		if err != nil {
			t.Fatalf("accepted spec %+v failed to re-parse: %v", s, err)
		}
		if back != s {
			t.Fatalf("round trip changed spec: %+v vs %+v", back, s)
		}
	})
}
