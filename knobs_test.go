package melissa_test

import (
	"bytes"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"melissa"
	"melissa/internal/client"
	"melissa/internal/cliflags"
	"melissa/internal/launcher"
	"melissa/internal/server"
	"melissa/internal/transport"
)

// Pinned knob and line counts. Lower a pin when a change removes knobs or
// code. Raise it only together with a stated reason in the change that adds
// them: every knob is a path someone has to measure, document and keep
// working, and every line one someone has to read.
const (
	pinnedConfigFields = 84
	pinnedSharedFlags  = 105
	pinnedSourceLines  = 17580
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

	const grew = "state the reason for each new knob in the change and raise the pin"
	checkPin(t, "exported config fields", fields, pinnedConfigFields, grew)
	checkPin(t, "shared flag registrations", flags, pinnedSharedFlags, grew)
}

// TestLineCensus counts every line of every non-test Go file of the module
// outside bench/ (the benchmark is a module of its own) and pins the total.
func TestLineCensus(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		lines += bytes.Count(b, []byte("\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPin(t, "non-test Go lines outside bench/", lines, pinnedSourceLines, "state the reason and raise the pin")
}

// checkPin fails t unless got equals its pin; grew says what to do when it
// rose above it.
func checkPin(t *testing.T, what string, got, pinned int, grew string) {
	t.Helper()
	switch {
	case got > pinned:
		t.Errorf("%s grew to %d (pinned at %d): %s", what, got, pinned, grew)
	case got < pinned:
		t.Errorf("%s shrank to %d (pinned at %d): lower the pin", what, got, pinned)
	}
}
