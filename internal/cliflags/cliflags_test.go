package cliflags

import (
	"flag"
	"io"
	"testing"
)

// TestBinaryFlagSets registers each binary's shared groups on a fresh FlagSet
// — a name two groups both claimed would panic here — and pins the defaults
// that differ between binaries, plus which binary carries which group ("-" =
// the binary must not have the flag).
func TestBinaryFlagSets(t *testing.T) {
	for _, tc := range []struct {
		name     string
		defaults map[string]string
	}{
		{"melissa-server", map[string]string{
			"checkpoint-interval": "10m0s", "batch-steps": "4", "group-timeout": "5m0s",
			"log-level": "info", "cells": "1024", "fold-workers": "0", "quantiles": "",
			"groups": "-", "sim-ranks": "-", "nx": "-", "out": "-", "reconnect-budget": "-",
		}},
		{"melissa-client", map[string]string{
			"batch-steps": "1", "log-level": "info", "groups": "100", "sim-ranks": "1",
			"reconnect-budget": "0", "nx": "96",
			"checkpoint-interval": "-", "group-timeout": "-", "fold-workers": "-", "minmax": "-", "out": "-",
		}},
		{"melissa-launcher", map[string]string{
			"checkpoint-interval": "1m0s", "batch-steps": "1", "group-timeout": "1m0s",
			"log-level": "info", "groups": "64", "sim-ranks": "2", "out": "out/launcher",
			"minmax": "-", "quantiles": "-",
		}},
		{"melissa-study", map[string]string{
			"checkpoint-interval": "2s", "batch-steps": "1", "log-level": "warn",
			"groups": "128", "out": "out", "quantile-eps": "0.01",
			"group-timeout": "-", "sim-ranks": "-", "cells": "-", "study": "-", "seed": "-",
		}},
	} {
		fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs, tc.name)
		for name, want := range tc.defaults {
			f := fs.Lookup(name)
			switch {
			case want == "-" && f != nil:
				t.Errorf("%s: unexpected flag -%s", tc.name, name)
			case want != "-" && f == nil:
				t.Errorf("%s: missing flag -%s", tc.name, name)
			case want != "-" && f.DefValue != want:
				t.Errorf("%s: -%s defaults to %q, want %q", tc.name, name, f.DefValue, want)
			}
		}
		// Every binary carries the pipeline, telemetry and chaos groups.
		for _, name := range []string{"batch-steps", "wire-codec",
			"metrics-addr", "log-level", "log-json", "chaos-seed", "chaos-cut-frames"} {
			if fs.Lookup(name) == nil {
				t.Errorf("%s: missing flag -%s", tc.name, name)
			}
		}
		// Batching is static: no binary carries an adaptive batch cap.
		if fs.Lookup("max-batch-steps") != nil {
			t.Errorf("%s: unexpected flag -max-batch-steps", tc.name)
		}
		if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
			t.Errorf("%s: -h returned %v", tc.name, err)
		}
	}
}

// TestStatsOptions covers the one copy of the threshold / quantile / ε
// parsing the server and study binaries share.
func TestStatsOptions(t *testing.T) {
	parse := func(args ...string) (*Flags, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := Register(fs, "melissa-server")
		return f, fs.Parse(args)
	}
	s, err := parse("-minmax", "-threshold", "2.5", "-quantiles", "0.1,0.9", "-quantile-eps", "0.02")
	if err != nil {
		t.Fatal(err)
	}
	opts, err := s.StatsOptions()
	if err != nil {
		t.Fatal(err)
	}
	if !opts.MinMax || opts.HigherMoments || opts.Threshold == nil || *opts.Threshold != 2.5 ||
		len(opts.Quantiles) != 2 || opts.Quantiles[1] != 0.9 || opts.QuantileEps != 0.02 {
		t.Fatalf("options %+v", opts)
	}
	for _, bad := range [][]string{{"-threshold", "x"}, {"-quantiles", "0.5,nope"}} {
		s, _ = parse(bad...)
		if _, err := s.StatsOptions(); err == nil {
			t.Fatalf("%v accepted", bad)
		}
	}
}

// TestChaosAndRetryAssembly: no fault flag leaves the transport unwrapped and
// a zero budget keeps the legacy fail-fast policy.
func TestChaosAndRetryAssembly(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs, "melissa-client")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.ChaosPlan() != nil || f.RetryPolicy().MaxReconnects != 0 {
		t.Fatalf("defaults declared a plan %v or a budget %+v", f.ChaosPlan(), f.RetryPolicy())
	}
	if err := fs.Parse([]string{"-chaos-cut-frames", "7", "-chaos-seed", "3", "-reconnect-budget", "5"}); err != nil {
		t.Fatal(err)
	}
	plan := f.ChaosPlan()
	if plan == nil || plan.Seed != 3 || len(plan.Rules) != 1 || plan.Rules[0].CutAfterFrames != 7 || plan.Rules[0].Dial != -1 {
		t.Fatalf("plan %+v", plan)
	}
	if p := f.RetryPolicy(); p.MaxReconnects != 5 || p.BaseDelay == 0 || p.MaxDelay == 0 {
		t.Fatalf("policy %+v", p)
	}
}
