package melissa_test

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"melissa"
	"melissa/internal/client"
	"melissa/internal/cliflags"
	"melissa/internal/launcher"
	"melissa/internal/server"
	"melissa/internal/transport"
)

// Pinned knob counts. Lower a pin when a change removes knobs. Raise it only
// together with a stated reason in the change that adds one: every knob is a
// path someone has to measure, document and keep working.
const (
	pinnedConfigFields = 89
	pinnedSharedFlags  = 107
)

// TestKnobCensus counts the exported fields of the configuration structs a
// study is assembled from and the shared flags every binary registers, and
// pins both totals.
func TestKnobCensus(t *testing.T) {
	fields := 0
	for _, v := range []any{
		melissa.StudyConfig{}, launcher.Config{}, server.Config{},
		client.ConnectOpts{}, client.RetryPolicy{}, transport.Options{},
	} {
		typ := reflect.TypeOf(v)
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		t.Logf("%v: %d exported fields", typ, n)
		fields += n
	}

	flags := 0
	for _, bin := range []string{"melissa-server", "melissa-client", "melissa-launcher", "melissa-study"} {
		fs := flag.NewFlagSet(bin, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cliflags.Register(fs, bin)
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		t.Logf("%s: %d shared flags", bin, n)
		flags += n
	}

	check := func(what string, got, pinned int) {
		switch {
		case got > pinned:
			t.Errorf("%s grew to %d (pinned at %d): state the reason for each new knob in the change and raise the pin",
				what, got, pinned)
		case got < pinned:
			t.Errorf("%s shrank to %d (pinned at %d): lower the pin", what, got, pinned)
		}
	}
	check("exported config fields", fields, pinnedConfigFields)
	check("shared flag registrations", flags, pinnedSharedFlags)
}
