package main

import (
	"fmt"
	"sort"
	"strings"
)

// perLayer assembles the traced run's metric set — spans and wrapper counts
// [T], layer replays [R], published counters [C], the CPU profile by package —
// and renders the budget table. It runs after the gate, outside every timed
// region of the study.
func (m *measured) perLayer(spans []span, gate gateResult, seed uint64) (map[string]metric, string, error) {
	w := m.study.w
	v := map[string]float64{}

	// [T] spans recorded by the fixture and the network wrapper.
	groupSpans, groupTotal := m.rec.groupSpans()
	v["solver.compute_s"] = sumKind(spans, spanSolverStep)
	v["solver.blocked_s"] = sumKind(spans, spanClientEmit)
	if first, ok := m.rec.firstMemberStart(); ok {
		v["launcher.boot_s"] = float64(first) / 1e9
		v["launcher.result_lag_s"] = m.wall - float64(m.rec.lastMemberEnd())/1e9
	}
	v["launcher.slot_idle_s"] = maxInFlight*m.wall - groupTotal
	v["client.group_exec_p50_s"] = m.groupExecP50()
	if n := len(groupSpans); n > 10 {
		v["client.group_exec_tail_s"] = groupSpans[n-11]
		v["client.group_exec_tail_pct"] = 100 * float64(n-10) / float64(n)
	}
	v["transport.send_s"] = float64(m.tnet.sendNs.Load()) / 1e9
	v["transport.recv_wait_s"] = m.tnet.recvWait()
	v["transport.frames"] = float64(m.tnet.dataFrames.Load())
	v["transport.ctrl_frames"] = float64(m.tnet.ctrlFrames.Load())
	v["transport.bytes"] = float64(m.tnet.dataBytes.Load())
	v["transport.dials"] = float64(m.tnet.dials.Load())
	v["launcher.recover_s"] = m.tnet.outage()
	v["trace.study_wall_s"] = m.wall
	v["trace.cpu_s"] = m.cpu
	v["trace.spans"] = float64(len(spans))
	v["trace.dropped_spans"] = float64(m.rec.dropped.Load())

	// [C] what the program already counts.
	st := m.stats
	v["launcher.restarts"] = float64(st.Restarts)
	v["launcher.reconnects"] = float64(st.Reconnects)
	v["launcher.server_restarts"] = float64(st.ServerRestarts)
	v["launcher.resumes"] = float64(st.ResumesAfterServerRestart)
	v["launcher.timeout_kills"] = float64(st.TimeoutKills)
	v["client.wire_bytes"] = m.delta("melissa_client_wire_bytes_total")
	v["wire.ratio"] = m.res.WireStats().Ratio()
	for name, hist := range map[string]string{
		"server.route_s":         "melissa_server_route_seconds",
		"server.decode_s":        "melissa_server_shard_decode_seconds",
		"server.fold_s":          "melissa_server_fold_seconds",
		"server.decompress_s":    "melissa_server_codec_decompress_seconds",
		"server.ckpt_snapshot_s": "melissa_server_checkpoint_snapshot_seconds",
		"server.ckpt_write_s":    "melissa_server_checkpoint_write_seconds",
	} {
		v[name] = m.delta(hist + "_sum")
	}
	v["server.folds"] = m.delta("melissa_server_folds_total")
	v["server.messages"] = m.delta("melissa_server_messages_total")
	v["server.drops"] = m.delta("melissa_server_dropped_frames_total")
	ck := m.res.Checkpoints()
	v["checkpoint.writes"] = float64(ck.Writes)
	v["checkpoint.skipped"] = float64(ck.Skipped)
	v["checkpoint.bytes"] = float64(ck.BytesWritten)
	v["checkpoint.stall_s"] = ck.StallDuration.Seconds()
	v["checkpoint.write_s"] = ck.WriteDuration.Seconds()
	v["sobol.max_abs_err"] = gate.sobolMaxAbsErr
	v["runtime.alloc_bytes_per_field_byte"] = m.delta("/gc/heap/allocs:bytes") / w.fieldBytes()
	v["runtime.mallocs_per_group_step"] = m.delta("/gc/heap/allocs:objects") / float64(w.groups*w.steps)
	v["runtime.gc_cpu_s"] = m.delta("/cpu/classes/gc/total:cpu-seconds")
	v["runtime.peak_rss_MB"] = m.peakRSSMB
	failed := m.failures()
	if len(gate.problems) > 0 {
		failed++
	}
	v["fail_share"] = float64(failed) / float64(w.groups)

	// The CPU profile, folded onto packages.
	samples, err := parseCPUProfile(m.profile)
	if err != nil {
		return nil, "", err
	}
	byPkg, profTotal := cpuByPackage(samples)
	for _, pkg := range cpuPackages {
		v["cpu."+pkg+"_s"] = byPkg[pkg]
	}
	v["cpu.unattributed_share"] = 1 - profTotal/m.cpu

	// [R] layer replays. The study's result is no longer needed; let the
	// replays reuse its memory.
	m.res = nil
	v["sampling.design_s"] = designSeconds(w, seed)
	rung, err := runServerRung(m.study)
	if err != nil {
		return nil, "", err
	}
	v["server.ingest_MBps"] = rung.ingestMBps
	v["client.handshake_us"] = rung.handshakeUs
	rp := newReplayer(m.study, rung.foldShards)
	lt, err := rp.sampleLayers()
	if err != nil {
		return nil, "", err
	}
	v["wire.encode_s"], v["wire.parse_s"], v["wire.decode_s"] = lt.encode, lt.parse, lt.decode
	v["codec.compress_s"], v["codec.decompress_s"] = lt.compress, lt.decompress
	v["core.fold_s"], v["core.ci_scan_ms"], v["core.snapshot_ms"] = lt.fold, lt.ciScanMs, lt.snapshotMs
	v["checkpoint.stream_MBps"] = lt.ckptStreamMBps
	if v["transport.pipe_s"], err = rp.pipeSeconds(); err != nil {
		return nil, "", err
	}
	if !w.codec {
		// Raw frames have one size, so the fault-free study's wire volume is
		// known exactly and anything beyond it was sent twice.
		v["launcher.resent_bytes"] = v["client.wire_bytes"] - lt.groupWireBytes*float64(w.groups)
	}
	if w.name == "flood_mem" {
		v["quantiles.update_ns_per_sample"] = quantileUpdateNs(seed)
	}

	out := make(map[string]metric, len(perLayerMetrics))
	for _, def := range perLayerMetrics {
		out[def.name] = metric{v[def.name], def.unit}
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			return nil, "", fmt.Errorf("metric %q is not in the inventory", name)
		}
	}
	return out, budgetTable(m, v, profTotal), nil
}

// budgetTable renders where the traced study's CPU and wall went.
func budgetTable(m *measured, v map[string]float64, profTotal float64) string {
	w := m.study.w
	var b strings.Builder
	row := func(name string, seconds, base float64, note string) {
		fmt.Fprintf(&b, "  %-28s %9.3f s  %5.1f %%  %s\n", name, seconds, 100*seconds/base, note)
	}
	fmt.Fprintf(&b, "budget %s: traced study wall %.3f s, cpu_s %.3f s, %d groups, GOMAXPROCS-wide\n",
		w.name, m.wall, m.cpu, w.groups)

	fmt.Fprintf(&b, " CPU by package (profile samples on the deepest melissa frame; share of cpu_s)\n")
	type kv struct {
		name string
		s    float64
	}
	var rows []kv
	for _, pkg := range cpuPackages {
		rows = append(rows, kv{"cpu." + pkg + "_s", v["cpu."+pkg+"_s"]})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].s > rows[j].s })
	for _, r := range rows {
		row(r.name, r.s, m.cpu, "")
	}
	row("= profile total", profTotal, m.cpu, "")
	row("unattributed (cpu_s − profile)", m.cpu-profTotal, m.cpu, "cpu.unattributed_share")
	fmt.Fprintf(&b, "  largest consumer: %s\n", rows[0].name)

	fmt.Fprintf(&b, " Layer stages (busy seconds per study; share of cpu_s)\n")
	stages := []struct{ name, note string }{
		{"solver.compute_s", "[T]"},
		{"wire.encode_s", "[R] client"},
		{"codec.compress_s", "[R] client"},
		{"transport.pipe_s", "[R]"},
		{"server.decode_s", "[C] includes server.decompress_s"},
		{"server.fold_s", "[C]"},
		{"server.ckpt_snapshot_s", "[C]"},
		{"cpu.checkpoint_s", "[profile] background checkpoint encode and write"},
		{"cpu.sobol_s", "[profile] the report scan's interval arithmetic"},
		{"runtime.gc_cpu_s", "[C] runtime/metrics"},
	}
	var explained float64
	for _, s := range stages {
		if v[s.name] == 0 {
			continue
		}
		row(s.name, v[s.name], m.cpu, s.note)
		explained += v[s.name]
	}
	row("= explained", explained, m.cpu, "")
	row("unexplained residual", m.cpu-explained, m.cpu, "launcher, client copies, routing, scheduling, runtime")
	fmt.Fprintf(&b, "  replays for comparison: wire.parse_s %.3f  wire.decode_s %.3f  codec.decompress_s %.3f  core.fold_s %.3f  (server.* above are the same work measured in place)\n",
		v["wire.parse_s"], v["wire.decode_s"], v["codec.decompress_s"], v["core.fold_s"])
	fmt.Fprintf(&b, "  one report scan %.2f ms, one snapshot %.2f ms, server-only ingest %.1f MB/s, handshake %.0f us\n",
		v["core.ci_scan_ms"], v["core.snapshot_ms"], v["server.ingest_MBps"], v["client.handshake_us"])

	fmt.Fprintf(&b, " Waits (share of the stated base)\n")
	slots := maxInFlight * m.wall
	row("launcher.slot_idle_s", v["launcher.slot_idle_s"], slots, fmt.Sprintf("of MaxInFlight × study_wall_s = %.3f s", slots))
	row("launcher.boot_s", v["launcher.boot_s"], m.wall, "of study_wall_s")
	row("launcher.result_lag_s", v["launcher.result_lag_s"], m.wall, "of study_wall_s")
	row("launcher.recover_s", v["launcher.recover_s"], m.wall, "of study_wall_s")
	members := float64(w.p+2) * (slots - v["launcher.slot_idle_s"])
	row("solver.blocked_s", v["solver.blocked_s"], members, "of member time (p+2 × Σ group spans)")
	row("transport.send_s", v["transport.send_s"], slots, "of MaxInFlight × study_wall_s")
	row("transport.recv_wait_s", v["transport.recv_wait_s"], serverProcs*m.wall, "of server inboxes × study_wall_s")
	row("server.route_s", v["server.route_s"], serverProcs*m.wall, "of server inboxes × study_wall_s; routing plus waits on full fold queues")
	return b.String()
}
