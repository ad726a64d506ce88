package cliutil

import (
	"context"
	"flag"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestCommonFlagsValidate(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := AddCommonFlags(fs)
	if err := fs.Parse([]string{"-parallel", "-3"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil {
		t.Fatal("negative worker count accepted")
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	c = AddCommonFlags(fs)
	if err := fs.Parse([]string{"-cache-stats"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.Cache || !c.UseCache() {
		t.Fatal("-cache-stats did not imply -cache")
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	c = AddCommonFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if c.UseCache() || c.JSON {
		t.Fatal("defaults enabled opt-in features")
	}
}

func TestSetFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Int("budget", 160, "")
	fs.Int("iters", 10, "")
	if err := fs.Parse([]string{"-budget", "200"}); err != nil {
		t.Fatal(err)
	}
	set := SetFlags(fs)
	if !set["budget"] || set["iters"] {
		t.Fatalf("set flags = %v", set)
	}
}

func TestAddMethodFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	m := AddMethodFlag(fs)
	if err := fs.Parse([]string{"-method", "analytic"}); err != nil {
		t.Fatal(err)
	}
	if *m != "analytic" {
		t.Fatalf("method = %q, want analytic", *m)
	}
	// The help text must enumerate the backend table, so all three CLIs (and
	// their docs) stay in sync with internal/solver automatically.
	f := fs.Lookup("method")
	if f == nil || !strings.Contains(f.Usage, "analytic | exact | hybrid | robust") {
		t.Fatalf("method flag usage out of sync with the solver table: %+v", f)
	}
	if f.DefValue != "" {
		t.Fatalf("method default %q, want empty (exact fallback happens at dispatch)", f.DefValue)
	}
}

// TestRobustFlagsSpec pins the nil-when-unset contract: the group must not
// clobber scenario-attached uncertainty specs with zero defaults, but any
// single set flag materialises the whole spec (zeros inherit the uncertain
// package defaults downstream).
func TestRobustFlagsSpec(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	r := AddRobustFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if spec := r.Spec(SetFlags(fs)); spec != nil {
		t.Fatalf("unset robust group produced a spec: %+v", spec)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	r = AddRobustFlags(fs)
	if err := fs.Parse([]string{"-samples", "32"}); err != nil {
		t.Fatal(err)
	}
	spec := r.Spec(SetFlags(fs))
	if spec == nil || spec.Samples != 32 {
		t.Fatalf("spec = %+v, want samples 32", spec)
	}
	if spec.Confidence != 0 || spec.RateSigma != 0 || spec.Seed != 0 {
		t.Fatalf("untouched fields must stay zero (defaults applied downstream): %+v", spec)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	r = AddRobustFlags(fs)
	args := []string{"-samples", "16", "-confidence", "0.9", "-rate-sigma", "0.3", "-uncertainty-seed", "7"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	spec = r.Spec(SetFlags(fs))
	if spec == nil || spec.Samples != 16 || spec.Confidence != 0.9 || spec.RateSigma != 0.3 || spec.Seed != 7 {
		t.Fatalf("full group spec = %+v", spec)
	}
}

// TestRobustFlagsDefaults pins that every flag in the group defaults to the
// inert zero — the group must be a no-op unless -method robust runs.
func TestRobustFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	AddRobustFlags(fs)
	for _, name := range []string{"samples", "confidence", "rate-sigma", "uncertainty-seed"} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("flag -%s not registered", name)
		}
		if f.DefValue != "0" {
			t.Errorf("-%s default %q, want 0 (inherit the spec default)", name, f.DefValue)
		}
	}
}

// TestCommonFlagsNilFlagSet pins the nil-fs convenience path onto the
// default CommandLine set without parsing it (parsing the real CommandLine
// inside a test would race with the test framework's own flags).
func TestCommonFlagsNilFlagSet(t *testing.T) {
	defer func(old *flag.FlagSet) { flag.CommandLine = old }(flag.CommandLine)
	flag.CommandLine = flag.NewFlagSet("cmdline", flag.ContinueOnError)
	c := AddCommonFlags(nil)
	m := AddMethodFlag(nil)
	r := AddRobustFlags(nil)
	if c == nil || m == nil || r == nil {
		t.Fatal("nil flag set must register on flag.CommandLine")
	}
	if flag.CommandLine.Lookup("parallel") == nil || flag.CommandLine.Lookup("method") == nil || flag.CommandLine.Lookup("samples") == nil {
		t.Fatal("groups not registered on the default set")
	}
	if set := SetFlags(nil); len(set) != 0 {
		t.Fatalf("nothing parsed, but SetFlags = %v", set)
	}
}

// TestShutdownClosesSilentConns: a connection that never sends a request
// byte must not hold up Shutdown (net/http alone waits 5 s for it).
func TestShutdownClosesSilentConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.NotFoundHandler()}
	CloseSilentConnsOnShutdown(srv)
	accepted := make(chan struct{}, 1)
	track := srv.ConnState
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		track(c, st)
		if st == http.StateNew {
			accepted <- struct{}{}
		}
	}
	go srv.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted the connection")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("Shutdown took %v with one silent connection open", d)
	}
}
