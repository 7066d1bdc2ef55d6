package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"melissa/internal/checkpoint"
	"melissa/internal/client"
	"melissa/internal/codec"
	"melissa/internal/core"
	"melissa/internal/enc"
	"melissa/internal/mesh"
	"melissa/internal/quantiles"
	"melissa/internal/sampling"
	"melissa/internal/server"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// Layer replays: each layer's exported functions, timed in isolation at the
// workload's shape. A replay times a sample of the study's groups and scales
// to the study's operation count, so its result reads as seconds per study
// and sits beside cpu_s in the budget.

// replaySampleTime bounds the timed part of one sampled replay; every replay
// covers at least replayMinGroups groups.
const (
	replaySampleTime = 700 * time.Millisecond
	replayMinGroups  = 4
)

// frame is one encoded data frame and the server process it goes to.
type frame struct {
	rank    int
	payload []byte
}

// replayer holds what the replays share: the study's inputs, the client's
// static routing and the fold-shard layout the server advertises.
type replayer struct {
	w          workload
	sim        *linfield
	design     *sampling.Design
	routes     []mesh.Transfer
	parts      []mesh.Partition // server partitions
	foldShards []int            // per server process
	comp       wire.BatchCompressor
}

func newReplayer(s *study, foldShards []int) *replayer {
	parts := mesh.BlockPartition(s.w.cells, serverProcs)
	return &replayer{
		w: s.w, sim: s.sim, design: s.design,
		routes:     mesh.Route(mesh.BlockPartition(s.w.cells, simRanks), parts),
		parts:      parts,
		foldShards: foldShards,
	}
}

// groupFields computes group g's fields, indexed [step][member].
func (r *replayer) groupFields(g int) [][][]float64 {
	rows := r.design.GroupRows(g)
	out := make([][][]float64, r.w.steps)
	for t := range out {
		out[t] = make([][]float64, len(rows))
		for m, row := range rows {
			out[t][m] = make([]float64, r.w.cells)
			r.sim.fill(out[t][m], t, 0, amplitude(row))
		}
	}
	return out
}

// rangeLens cuts a route on the receiving process's fold-shard boundaries, as
// client.Connection does for compressed frames.
func (r *replayer) rangeLens(tr mesh.Transfer) []int {
	part := r.parts[tr.ServerRank]
	var lens []int
	for _, sh := range mesh.BlockPartition(part.Len(), max(1, min(r.foldShards[tr.ServerRank], part.Len()))) {
		lo, hi := max(sh.Lo+part.Lo, tr.Cells.Lo), min(sh.Hi+part.Lo, tr.Cells.Hi)
		if lo < hi {
			lens = append(lens, hi-lo)
		}
	}
	return lens
}

// encodeGroup encodes group g's frames in the order and framing the client
// uses for this workload, with id as the group id on the wire. It returns the
// frames and the time spent inside the encoder alone.
func (r *replayer) encodeGroup(id int, fields [][][]float64) (frames []frame, encode time.Duration) {
	w := r.w
	emit := func(rank int, write func(*enc.Writer)) {
		ew := enc.GetWriter(int(wire.DataBatchSizeBytes(w.batchSteps, w.p+2, w.cells)))
		t0 := time.Now()
		write(ew)
		encode += time.Since(t0)
		frames = append(frames, frame{rank, append([]byte(nil), ew.Bytes()...)})
		enc.PutWriter(ew)
	}
	cut := func(t int, tr mesh.Transfer) [][]float64 {
		c := make([][]float64, w.p+2)
		for m := range c {
			c[m] = fields[t][m][tr.Cells.Lo:tr.Cells.Hi]
		}
		return c
	}
	if w.batchSteps <= 1 && !w.codec {
		for t := 0; t < w.steps; t++ {
			for _, tr := range r.routes {
				d := &wire.Data{GroupID: id, Timestep: t, CellLo: tr.Cells.Lo, CellHi: tr.Cells.Hi, Fields: cut(t, tr)}
				emit(tr.ServerRank, func(ew *enc.Writer) { wire.EncodeTo(ew, d) })
			}
		}
		return frames, encode
	}
	for t0 := 0; t0 < w.steps; t0 += max(1, w.batchSteps) {
		for _, tr := range r.routes {
			b := &wire.DataBatch{GroupID: id, CellLo: tr.Cells.Lo, CellHi: tr.Cells.Hi}
			for t := t0; t < min(t0+max(1, w.batchSteps), w.steps); t++ {
				b.Steps = append(b.Steps, wire.DataStep{Timestep: t, Fields: cut(t, tr)})
			}
			if w.codec {
				lens := r.rangeLens(tr)
				emit(tr.ServerRank, func(ew *enc.Writer) { r.comp.EncodeTo(ew, b, lens) })
			} else {
				emit(tr.ServerRank, func(ew *enc.Writer) { wire.EncodeTo(ew, b) })
			}
		}
	}
	return frames, encode
}

// layerTimes are the sampled replays' results, in seconds per study.
type layerTimes struct {
	encode, parse, decode float64 // raw framing
	compress, decompress  float64 // codec framing
	fold                  float64
	ciScanMs, snapshotMs  float64
	ckptStreamMBps        float64
	groupWireBytes        float64 // one group's frames on the wire (mean over the sample)
}

// parseAndDecode runs the server-side wire work on one frame: the lazy header
// parse, then the float decode (or decompression) of every cell.
func parseAndDecode(payload []byte, scratch *[]float64, words *[]uint64, dec *codec.Decoder) (parse, decode, decompress time.Duration, err error) {
	grow := func(n int) []float64 {
		if cap(*scratch) < n {
			*scratch = make([]float64, n)
		}
		return (*scratch)[:n]
	}
	switch wire.PayloadType(payload) {
	case wire.TypeData:
		var v wire.DataView
		t0 := time.Now()
		err = v.Parse(payload)
		parse = time.Since(t0)
		if err != nil {
			return
		}
		dst := grow(v.Cells())
		t0 = time.Now()
		for f := 0; f < v.NumFields(); f++ {
			v.DecodeFieldRange(f, 0, v.Cells(), dst)
		}
		decode = time.Since(t0)
	case wire.TypeDataBatch:
		var v wire.DataBatchView
		t0 := time.Now()
		err = v.Parse(payload)
		parse = time.Since(t0)
		if err != nil {
			return
		}
		dst := grow(v.Cells())
		t0 = time.Now()
		for s := 0; s < v.NumSteps(); s++ {
			for f := 0; f < v.NumFields(); f++ {
				v.DecodeFieldRange(s, f, 0, v.Cells(), dst)
			}
		}
		decode = time.Since(t0)
	case wire.TypeDataBatchC:
		var v wire.DataBatchCView
		t0 := time.Now()
		err = v.Parse(payload)
		for rg := 0; rg < v.NumRanges() && err == nil; rg++ {
			if n := v.RangeWords(rg); cap(*words) < n {
				*words = make([]uint64, n)
			}
			err = v.DecompressRange(rg, dec, (*words)[:v.RangeWords(rg)])
		}
		decompress = time.Since(t0)
	default:
		err = fmt.Errorf("replay: unexpected frame type %d", wire.PayloadType(payload))
	}
	return
}

// sampleLayers replays the per-group layer work — client encode, server parse
// and decode, fold — over a sample of groups, then times one report scan, one
// snapshot and (for checkpointing workloads) one streamed checkpoint on the
// folded state of one server process.
func (r *replayer) sampleLayers() (layerTimes, error) {
	w := r.w
	var lt layerTimes
	part := r.parts[0]
	acc := core.NewSharded(part.Len(), w.steps, w.p, w.stats, r.foldShards[0])
	var (
		encT, parse, decode, decompress, fold time.Duration
		floats                                []float64
		words                                 []uint64
		dec                                   codec.Decoder
		wireBytes, sampled                    int
	)
	begin := time.Now()
	for g := 0; g < w.groups; g++ {
		if g >= replayMinGroups && time.Since(begin) > replaySampleTime {
			break
		}
		fields := r.groupFields(g)
		frames, e := r.encodeGroup(g, fields)
		encT += e
		for _, fr := range frames {
			wireBytes += len(fr.payload)
			p, d, z, err := parseAndDecode(fr.payload, &floats, &words, &dec)
			if err != nil {
				return lt, err
			}
			parse, decode, decompress = parse+p, decode+d, decompress+z
		}
		t0 := time.Now()
		for t := 0; t < w.steps; t++ {
			f := fields[t]
			yC := make([][]float64, w.p)
			for k := range yC {
				yC[k] = f[2+k][part.Lo:part.Hi]
			}
			acc.UpdateGroup(t, f[0][part.Lo:part.Hi], f[1][part.Lo:part.Hi], yC)
		}
		fold += time.Since(t0)
		sampled++
	}
	scale := float64(w.groups) / float64(sampled)
	perStudy := func(d time.Duration) float64 { return d.Seconds() * scale }
	if w.codec {
		lt.compress, lt.decompress = perStudy(encT), perStudy(decompress)
	} else {
		lt.encode, lt.parse, lt.decode = perStudy(encT), perStudy(parse), perStudy(decode)
	}
	lt.fold = perStudy(fold) * float64(w.cells) / float64(part.Len())
	lt.groupWireBytes = float64(wireBytes) / float64(sampled)

	// One report scan over the all-dirty state of one server process.
	t0 := time.Now()
	acc.MaxCIWidth(0.95)
	lt.ciScanMs = time.Since(t0).Seconds() * 1e3

	t0 = time.Now()
	snap := acc.NewSnapshot()
	for i := 0; i < acc.NumShards(); i++ {
		acc.SnapshotShard(i, snap)
	}
	lt.snapshotMs = time.Since(t0).Seconds() * 1e3

	if w.ckptEvery > 0 {
		dir, err := os.MkdirTemp(scratchDir, "replay-ckpt-")
		if err != nil {
			return lt, err
		}
		defer os.RemoveAll(dir)
		mbps, err := streamCheckpoint(filepath.Join(dir, "replay.ckpt"), snap, part)
		if err != nil {
			return lt, err
		}
		lt.ckptStreamMBps = mbps
	}
	return lt, nil
}

// streamCheckpoint is the server's background checkpoint write in isolation:
// a frozen snapshot → StreamWriter, section by section → Commit (fsync +
// rename).
func streamCheckpoint(path string, snap *core.Snapshot, part mesh.Partition) (mbps float64, err error) {
	t0 := time.Now()
	sw, err := checkpoint.NewStreamWriter(path, checkpoint.Version)
	if err != nil {
		return 0, err
	}
	err = sw.Section(func(w *enc.Writer) {
		w.Int(part.Lo)
		w.Int(part.Hi)
		w.I64(0)
		snap.EncodeHeader(w, core.LayoutCurrent)
	})
	for t := 0; t < snap.Timesteps() && err == nil; t++ {
		err = sw.Section(func(w *enc.Writer) { snap.EncodeStep(w, core.LayoutCurrent, t) })
	}
	if err != nil {
		sw.Abort()
		return 0, err
	}
	written := sw.Written()
	if err := sw.Commit(); err != nil {
		return 0, err
	}
	return float64(written) / time.Since(t0).Seconds() / 1e6, nil
}

// designSeconds times the sampling layer's share of a study: building the
// design and deriving every group's rows.
func designSeconds(w workload, seed uint64) float64 {
	t0 := time.Now()
	d := sampling.NewDesign(uniformParams(w.p), w.groups, seed)
	for g := 0; g < w.groups; g++ {
		d.GroupRows(g)
	}
	return time.Since(t0).Seconds()
}

// quantileUpdateNs times quantiles.Field at the flood_mem shape: 192 samples
// into each of 16384 cells.
func quantileUpdateNs(seed uint64) float64 {
	const cells, pairs = 16384, 96
	sim := newLinfield(seed, cells, 1)
	design := sampling.NewDesign(uniformParams(4), pairs, seed)
	f := quantiles.NewField(cells, 0)
	a, b := make([]float64, cells), make([]float64, cells)
	var total time.Duration
	for g := 0; g < pairs; g++ {
		sim.fill(a, 0, 0, amplitude(design.RowA(g)))
		sim.fill(b, 0, 0, amplitude(design.RowB(g)))
		t0 := time.Now()
		f.UpdatePair(a, b)
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / float64(2*pairs*cells)
}

// pipeSeconds pushes a sample of the study's data frames through the
// workload's own network into receivers that only drain, one per server
// process, and scales to the whole study.
func (r *replayer) pipeSeconds() (float64, error) {
	netw := r.w.newNetwork()
	recvs := make([]transport.Receiver, serverProcs)
	sends := make([]transport.Sender, serverProcs)
	for i := range recvs {
		rc, err := netw.Listen("")
		if err != nil {
			return 0, err
		}
		defer rc.Close()
		recvs[i] = rc
		s, err := netw.Dial(rc.Addr())
		if err != nil {
			return 0, err
		}
		defer s.Close()
		sends[i] = s
	}
	var timed time.Duration
	groups := 0
	for g := 0; g < r.w.groups; g++ {
		if g >= replayMinGroups && timed > replaySampleTime/2 {
			break
		}
		frames, _ := r.encodeGroup(g, r.groupFields(g))
		perRank := make([]int, serverProcs)
		for _, fr := range frames {
			perRank[fr.rank]++
		}
		var wg sync.WaitGroup
		errs := make([]error, serverProcs)
		t0 := time.Now()
		for i, rc := range recvs {
			wg.Add(1)
			go func(i int, rc transport.Receiver) {
				defer wg.Done()
				for n := 0; n < perRank[i]; n++ {
					msg, err := rc.Recv(10 * time.Second)
					if err != nil {
						errs[i] = err
						return
					}
					transport.Recycle(msg.Payload)
				}
			}(i, rc)
		}
		for _, fr := range frames {
			if err := sends[fr.rank].Send(fr.payload); err != nil {
				return 0, err
			}
		}
		wg.Wait()
		timed += time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return 0, fmt.Errorf("pipe replay: %w", err)
			}
		}
		groups++
	}
	return timed.Seconds() * float64(r.w.groups) / float64(groups), nil
}

// reportInterval is the report period launcher.Run configures on its server
// at the default tick: max(4 × 5 ms, 20 ms).
const reportInterval = 20 * time.Millisecond

// serverRung is the server-only rung of the ingest ladder: a real server fed
// pre-encoded frames over the workload's network, with no solver and no
// client encode. It also measures the group handshake against that server.
type serverRung struct {
	ingestMBps  float64
	handshakeUs float64
	foldShards  []int
}

// bootServer starts a server configured as launcher.Run would configure this
// workload's, minus checkpoints and launcher reports.
func bootServer(w workload, netw transport.Network) (*server.Server, error) {
	srv, err := server.New(server.Config{
		Procs: serverProcs, Cells: w.cells, Timesteps: w.steps, P: w.p,
		Stats: w.stats, Network: netw, WireCodec: w.codec,
		ReportInterval: reportInterval,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	return srv, nil
}

// handshake performs the Hello/Welcome exchange by hand and dials every server
// process.
func handshake(netw transport.Network, mainAddr string, group int) ([]transport.Sender, error) {
	reply, err := netw.Listen("")
	if err != nil {
		return nil, err
	}
	defer reply.Close()
	main, err := netw.Dial(mainAddr)
	if err != nil {
		return nil, err
	}
	err = main.Send(wire.Encode(&wire.Hello{GroupID: group, SimRanks: simRanks, ReplyAddr: reply.Addr(), Caps: wire.CapWireCodec}))
	main.Close()
	if err != nil {
		return nil, err
	}
	msg, err := reply.Recv(5 * time.Second)
	if err != nil {
		return nil, fmt.Errorf("waiting for welcome: %w", err)
	}
	decoded, err := wire.Decode(msg.Payload)
	if err != nil {
		return nil, err
	}
	welcome, ok := decoded.(*wire.Welcome)
	if !ok {
		return nil, fmt.Errorf("expected Welcome, got %T", decoded)
	}
	senders := make([]transport.Sender, len(welcome.ServerAddr))
	for rank, addr := range welcome.ServerAddr {
		if senders[rank], err = netw.Dial(addr); err != nil {
			return nil, err
		}
	}
	return senders, nil
}

// runServerRung streams rounds of pre-encoded groups from maxInFlight
// connections and stops each round's clock when Server.TotalFolds shows every
// frame folded. Encoding happens between rounds, off the clock.
func runServerRung(s *study) (serverRung, error) {
	w := s.w
	var out serverRung
	netw := w.newNetwork()
	srv, err := bootServer(w, netw)
	if err != nil {
		return out, err
	}
	defer srv.Stop(false)
	for _, p := range srv.Procs() {
		out.foldShards = append(out.foldShards, p.FoldWorkers())
	}
	r := newReplayer(s, out.foldShards)

	streams := make([][]transport.Sender, maxInFlight)
	for i := range streams {
		if streams[i], err = handshake(netw, srv.MainAddr(), 1<<24+i); err != nil {
			return out, fmt.Errorf("server rung handshake: %w", err)
		}
	}
	defer func() {
		for _, senders := range streams {
			for _, sd := range senders {
				sd.Close()
			}
		}
	}()

	groupBytes := w.fieldBytes() / float64(w.groups)
	perRound := int(min(400, max(2, 64e6/groupBytes)))
	perRound -= perRound % maxInFlight
	var timed time.Duration
	sent := 0
	for sent+perRound <= w.groups && (sent < replayMinGroups || timed < 2*replaySampleTime) {
		lanes := make([][]frame, maxInFlight)
		for i := 0; i < perRound; i++ {
			g := sent + i
			frames, _ := r.encodeGroup(g, r.groupFields(g))
			lanes[i%maxInFlight] = append(lanes[i%maxInFlight], frames...)
		}
		sent += perRound
		want := int64(sent) * int64(w.steps) * serverProcs
		errs := make(chan error, maxInFlight)
		t0 := time.Now()
		for i, lane := range lanes {
			go func(senders []transport.Sender, lane []frame) {
				for _, fr := range lane {
					if err := senders[fr.rank].Send(fr.payload); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(streams[i], lane)
		}
		for range lanes {
			if err := <-errs; err != nil {
				return out, fmt.Errorf("server rung send: %w", err)
			}
		}
		for srv.TotalFolds() < want {
			if time.Since(t0) > 60*time.Second {
				return out, fmt.Errorf("server rung: %d of %d folds after 60 s", srv.TotalFolds(), want)
			}
			time.Sleep(100 * time.Microsecond)
		}
		timed += time.Since(t0)
	}
	out.ingestMBps = float64(sent) * groupBytes / timed.Seconds() / 1e6

	// The group handshake against the same live server, on the same network.
	const handshakes = 200
	lat := make([]float64, handshakes)
	for i := range lat {
		t0 := time.Now()
		conn, err := client.ConnectWith(netw, srv.MainAddr(), client.ConnectOpts{
			GroupID: 1<<25 + i, SimRanks: simRanks, Timeout: 5 * time.Second,
		})
		if err != nil {
			return out, fmt.Errorf("handshake replay: %w", err)
		}
		conn.Close()
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	out.handshakeUs = median(lat)
	return out, nil
}
