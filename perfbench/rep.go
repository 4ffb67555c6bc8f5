package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/obs"
	"croesus/internal/scenario"
	"croesus/internal/tcpnet"
	"croesus/internal/transport"
	"croesus/internal/vclock"
	"croesus/internal/video"
)

// repResult is what one repetition — one fresh child process — reports to
// the parent, as a JSON line.
type repResult struct {
	Traced bool `json:"traced"`

	SetupS   float64 `json:"setup_s"`
	WallS    float64 `json:"wall_s"` // timed phase
	CPUS     float64 `json:"cpu_s"`  // process user+sys during the timed phase
	MaxRSSKB int64   `json:"max_rss_kb"`

	Attempted int `json:"attempted"`
	Answered  int `json:"answered"` // frames with a final answer

	// Failures lists every output check that failed.
	Failures []string `json:"failures"`
	// Fingerprint hashes the simulated fleet's printed report
	// (ClusterReport.Format: what croesus-cluster prints and the
	// repository's determinism tests pin); a same-seed replay must
	// reproduce it exactly. StructFingerprint hashes every field of the
	// report, including counts the printed report leaves out.
	Fingerprint       string `json:"fingerprint,omitempty"`
	StructFingerprint string `json:"struct_fingerprint,omitempty"`

	// Heap activity during the timed phase.
	Mallocs    uint64    `json:"mallocs"`
	AllocBytes uint64    `json:"alloc_bytes"`
	GCPausesMs []float64 `json:"gc_pauses_ms"`

	// Commit latency p50 and p99, ms. On the sim these are the report's
	// modeled (virtual-clock) fleet percentiles; on TCP the repetition's
	// wall-clock percentiles, timed from each frame's due time.
	InitialMs []float64 `json:"initial_ms"`
	FinalMs   []float64 `json:"final_ms"`
	// LateMs is the open-loop generator's lateness per frame.
	LateMs []float64 `json:"late_ms,omitempty"`

	// Counters are per-layer counts the program reports, already divided
	// into the per-layer metric they feed (see counterUnits).
	Counters map[string]float64 `json:"counters"`
	// CPUByLayer and AllocByLayer are the traced run's profile sums.
	CPUByLayer   map[string]int64 `json:"cpu_by_layer,omitempty"`
	AllocByLayer map[string]int64 `json:"alloc_by_layer,omitempty"`

	// StealShare, filled in by the parent, is the share of the machine's
	// CPU time the hypervisor gave to other guests during the repetition:
	// a high value marks a run disturbed from outside.
	StealShare float64 `json:"-"`
}

// heapMark snapshots heap counters around the timed phase.
type heapMark struct {
	mallocs, bytes uint64
	numGC          uint32
}

func markHeap() (heapMark, runtime.MemStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapMark{ms.Mallocs, ms.TotalAlloc, ms.NumGC}, ms
}

// recordHeap fills the heap fields from two marks; the runtime keeps the
// last 256 pause times, which bounds the pauses reported.
func (r *repResult) recordHeap(before heapMark) {
	after, ms := markHeap()
	r.Mallocs = after.mallocs - before.mallocs
	r.AllocBytes = after.bytes - before.bytes
	n := after.numGC - before.numGC
	if n > uint32(len(ms.PauseNs)) {
		n = uint32(len(ms.PauseNs))
	}
	for i := uint32(0); i < n; i++ {
		idx := (after.numGC - 1 - i) % uint32(len(ms.PauseNs))
		r.GCPausesMs = append(r.GCPausesMs, float64(ms.PauseNs[idx])/1e6)
	}
}

// tracer profiles a traced repetition: a CPU profile over the timed
// phase and the allocation profile's growth across it.
type tracer struct {
	cpuFile   *os.File
	allocBase map[string]int64
}

// cpuProfileHz raises the sampling rate above pprof's 100 Hz default so
// a one-second run still gives every layer enough samples. The runtime
// takes the first rate set; StartCPUProfile's own request is refused
// with a warning on standard error. The kernel may deliver fewer
// samples than asked (about 250 Hz on a 250 Hz kernel), which scales
// every layer alike and leaves the shares unbiased.
const cpuProfileHz = 1000

func startTrace(dir string) (*tracer, error) {
	t := &tracer{}
	base, err := t.allocs()
	if err != nil {
		return nil, err
	}
	t.allocBase = base
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	t.cpuFile = f
	return t, nil
}

// allocs sums the allocation profile per layer (bytes). The profile only
// includes garbage collections that have completed, so force one first.
func (t *tracer) allocs() (map[string]int64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return p.byLayer("alloc_space")
}

func (t *tracer) stop(r *repResult) error {
	pprof.StopCPUProfile()
	name := t.cpuFile.Name()
	defer os.Remove(name)
	if err := t.cpuFile.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	if r.CPUByLayer, err = p.byLayer("cpu"); err != nil {
		return err
	}
	after, err := t.allocs()
	if err != nil {
		return err
	}
	r.AllocByLayer = map[string]int64{}
	for l, v := range after {
		r.AllocByLayer[l] = v - t.allocBase[l]
	}
	return nil
}

// fingerprints hash a report's printed form and all of its fields. The
// fleet report holds only virtual-clock times, so two same-seed runs of
// one build should hash identically.
func fingerprints(rep *cluster.ClusterReport) (printed, full string) {
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:8])
	}
	b, err := json.Marshal(rep)
	if err != nil {
		b = []byte(err.Error())
	}
	return hash([]byte(rep.Format())), hash(b)
}

// runSimRep runs one simulated workload once, in this process: decode the
// generated scenario, provision the fleet, run it to completion, check
// the report.
func runSimRep(workload string, seed int64, traced bool, tmp string) (*repResult, error) {
	r := &repResult{Traced: traced, Counters: map[string]float64{}}
	data, err := simScenario(workload, seed).Encode()
	if err != nil {
		return nil, err
	}
	var o *obs.Obs
	var sends *sendLog
	var tr transport.Transport
	if traced {
		o = obs.New()
		sends = newSendLog()
		tr = &countingTransport{Transport: transport.NewSim(), log: sends}
	}

	t0 := time.Now()
	sc, err := scenario.Decode(data)
	if err != nil {
		return nil, err
	}
	rt, err := scenario.NewObserved(sc, vclock.NewSim(), tr, o)
	if err != nil {
		return nil, err
	}
	defer rt.Cluster.Close()
	r.SetupS = time.Since(t0).Seconds()

	var trc *tracer
	if traced {
		if trc, err = startTrace(tmp); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	heap, _ := markHeap()
	u0 := readUsage()
	t1 := time.Now()
	rep := rt.Run()
	r.WallS = time.Since(t1).Seconds()
	r.CPUS = (readUsage().cpu - u0.cpu).Seconds()
	r.recordHeap(heap)
	if trc != nil {
		if err := trc.stop(r); err != nil {
			return nil, err
		}
	}

	r.Attempted = simFrames(workload)
	r.Answered = rep.Frames
	r.InitialMs = durationsMs([]time.Duration{rep.InitialP50, rep.InitialP99})
	r.FinalMs = durationsMs([]time.Duration{rep.FinalP50, rep.FinalP99})
	r.Fingerprint, r.StructFingerprint = fingerprints(rep)
	if workload == wShardedGraph {
		var durErr error
		if inj := rt.Cluster.Injector(); inj == nil {
			durErr = fmt.Errorf("durable fleet has no fault injector")
		} else {
			durErr = inj.VerifyDurability()
		}
		r.Failures = checkShardedGraph(rep, durErr)
	} else {
		r.Failures = checkFleetCold(rep)
	}
	simCounters(r, rep, o, sends)
	return r, nil
}

// simCounters derives the per-layer counter metrics of a fleet run.
func simCounters(r *repResult, rep *cluster.ClusterReport, o *obs.Obs, sends *sendLog) {
	frames := float64(rep.Frames)
	c := r.Counters
	batcherCounters(c, rep.Batcher)
	aborts := 0
	for _, cr := range rep.Cameras {
		aborts += cr.Summary.InitialAborts
	}
	c["txn.per_frame"] = ratio(float64(rep.TxnsTriggered), frames)
	c["txn.aborts_per_kframe"] = 1000 * ratio(float64(int64(aborts)+rep.TwoPC.Aborts), frames)
	c["txn.apologies_per_kframe"] = 1000 * ratio(float64(rep.Apologies), frames)
	c["twopc.cross_edge_commits_per_frame"] = ratio(float64(rep.TwoPC.CrossEdgeCommits), frames)
	c["twopc.prepare_rpcs_per_frame"] = ratio(float64(rep.TwoPC.PrepareRPCs), frames)
	c["twopc.lock_rpcs_per_frame"] = ratio(float64(rep.TwoPC.LockRPCs), frames)
	if f := rep.Faults; f != nil {
		c["wal.replayed"] = float64(f.ReplayedRecords)
		c["faults.in_doubt"] = float64(f.InDoubt)
	}
	if o != nil {
		var appends int64
		for k, v := range o.Registry().Snapshot() {
			if strings.HasPrefix(k, obs.MetricWALAppends) {
				appends += v
			}
		}
		c["wal.appends_per_frame"] = ratio(float64(appends), frames)
	}
	if sends != nil {
		c["transport.sends_per_frame"] = ratio(float64(sends.sends.Load()+sends.charges.Load()), frames)
		c["transport.bytes_per_frame"] = ratio(float64(sends.bytes.Load()), frames)
		us := make([]float64, 0, len(sends.timed()))
		for _, d := range sends.timed() {
			us = append(us, float64(d)/float64(time.Microsecond))
		}
		c["transport.send_us_p50"] = median(us)
	}
}

func batcherCounters(c map[string]float64, bs cluster.BatcherStats) {
	c["batcher.mean_batch"] = bs.MeanBatch
	c["batcher.shed_ratio"] = ratio(float64(bs.Shed), float64(bs.Frames+bs.Shed))
	c["batcher.max_flush_wait_ms"] = float64(bs.MaxFlushWait) / float64(time.Millisecond)
	c["batcher.slo_violations"] = float64(bs.SLOViolations)
}

// tcpStack is the edge-cloud-tcp deployment: a cloud server and an edge
// server on loopback, and one client connection to the edge.
type tcpStack struct {
	cloud  *tcpnet.CloudServer
	edge   *tcpnet.EdgeServer
	client *tcpnet.Client
	closed bool
}

func startTCPStack(o *obs.Obs) (*tcpStack, error) {
	cloud, err := tcpnet.NewCloudServerWith(tcpnet.CloudConfig{
		Model:     detect.YOLOv3Sim(detect.YOLO416, modelSeed),
		TimeScale: tcpTimeScale,
		Obs:       o,
	})
	if err != nil {
		return nil, err
	}
	st := &tcpStack{cloud: cloud}
	cloudAddr, err := cloud.Listen("127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	if st.edge, err = tcpnet.NewEdgeServer(tcpnet.EdgeConfig{
		EdgeModel: detect.TinyYOLOSim(modelSeed),
		CloudAddr: cloudAddr,
		TimeScale: tcpTimeScale,
		ThetaL:    0.40,
		ThetaU:    0.62,
		Source:    core.NewWorkloadSource(1000, modelSeed),
		Obs:       o,
	}); err != nil {
		st.close()
		return nil, err
	}
	edgeAddr, err := st.edge.Listen("127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	if st.client, err = tcpnet.Dial(edgeAddr); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close shuts the stack down, client first, and waits for the servers'
// goroutines, so their counters are final afterwards. Closing twice is a
// no-op.
func (st *tcpStack) close() {
	if st.closed {
		return
	}
	st.closed = true
	if st.client != nil {
		st.client.Close()
	}
	if st.edge != nil {
		st.edge.Close()
	}
	st.cloud.Close()
}

// tcpFrames generates n frames for one connection: a pool of distinct
// frames from one camera per profile, interleaved so every seed sends the
// same profile mix, and re-indexed so every submitted frame has its own
// index (the client and edge key frames by index).
func tcpFrames(seed int64, n int) []*video.Frame {
	profiles := video.AllProfiles()
	seeds := cameraSeeds(seed, len(profiles))
	per := tcpPoolSize / len(profiles)
	gens := make([][]*video.Frame, len(profiles))
	for i, p := range profiles {
		gens[i] = video.NewGenerator(p, seeds[i]).Generate(per)
	}
	out := make([]*video.Frame, n)
	for i := range out {
		k := i % (per * len(profiles))
		f := *gens[k%len(profiles)][k/len(profiles)]
		f.Index = i
		out[i] = &f
	}
	return out
}

// runTCPRep runs the open-loop edge-cloud-tcp load for dur: one
// generator goroutine submits frame i at start + i/rate over one
// connection, whether or not earlier frames were answered.
func runTCPRep(seed int64, dur time.Duration, traced bool, tmp string) (*repResult, error) {
	r := &repResult{Traced: traced, Counters: map[string]float64{}}
	n := int(dur.Seconds() * tcpRate)
	var o *obs.Obs
	if traced {
		o = obs.New()
	}

	t0 := time.Now()
	st, err := startTCPStack(o)
	if err != nil {
		return nil, err
	}
	defer st.close()
	frames := tcpFrames(seed, n)
	r.SetupS = time.Since(t0).Seconds()

	var trc *tracer
	if traced {
		if trc, err = startTrace(tmp); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	heap, _ := markHeap()
	u0 := readUsage()
	late := make([]time.Duration, n)
	sent := make([]time.Time, n)
	submit := make([]time.Duration, n)
	start := time.Now()
	interval := time.Second / tcpRate
	for i, f := range frames {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent[i] = time.Now()
		late[i] = sent[i].Sub(due)
		if err := st.client.Submit(f, f.SizeBytes); err != nil {
			return nil, fmt.Errorf("submit frame %d: %w", i, err)
		}
		submit[i] = time.Since(sent[i])
	}
	deadline := start.Add(time.Duration(n-1)*interval + tcpReplyWait)
	results := make([]*tcpnet.FrameResult, n)
	var end time.Time
	for i := range frames {
		wait := time.Until(deadline)
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		res, err := st.client.WaitFrame(i, wait)
		if err != nil {
			continue // no final reply in time: a failed frame
		}
		results[i] = res
		if t := sent[i].Add(res.FinalLatency); t.After(end) {
			end = t
		}
	}
	r.CPUS = (readUsage().cpu - u0.cpu).Seconds()
	r.recordHeap(heap)
	if trc != nil {
		if err := trc.stop(r); err != nil {
			return nil, err
		}
	}
	if end.IsZero() {
		end = time.Now()
	}
	r.WallS = end.Sub(start).Seconds()
	r.Attempted = n
	var initial, final []time.Duration
	for i, res := range results {
		if res == nil {
			continue
		}
		r.Answered++
		initial = append(initial, late[i]+res.InitialLatency)
		final = append(final, late[i]+res.FinalLatency)
	}
	r.InitialMs = percentilesMs(initial)
	r.FinalMs = percentilesMs(final)
	r.LateMs = durationsMs(late)

	// The edge counts a frame as served after sending its final reply.
	st.close()
	r.Failures = checkTCP(frames, results, detect.YOLOv3Sim(detect.YOLO416, modelSeed), st.edge.Served(), st.cloud.Handled(), st.cloud.BatcherStats())
	batcherCounters(r.Counters, st.cloud.BatcherStats())
	// The batcher measures on the server's scaled clock; report wall time.
	r.Counters["batcher.max_flush_wait_ms"] *= tcpTimeScale
	ts := st.edge.Manager().Stats()
	answered := float64(r.Answered)
	r.Counters["txn.per_frame"] = ratio(float64(ts.InitialCommits), answered)
	r.Counters["txn.aborts_per_kframe"] = 1000 * ratio(float64(ts.Aborts), answered)
	r.Counters["txn.apologies_per_kframe"] = 1000 * ratio(float64(ts.Apologies), answered)
	if traced {
		r.Counters["tcpnet.submit_us_p50"] = 1000 * median(durationsMs(submit))
	}
	return r, nil
}

// runRep runs one repetition of a workload in this process and writes its
// result to stdout.
func runRep(workload string, seed int64, traced bool, tcpDur time.Duration, tmp string) error {
	if traced {
		// Sample one allocation per 16 KiB instead of 512 KiB, so a
		// one-second run attributes its allocations to layers.
		runtime.MemProfileRate = 16 << 10
	}
	var r *repResult
	var err error
	if workload == wEdgeCloudTCP {
		r, err = runTCPRep(seed, tcpDur, traced, tmp)
	} else {
		r, err = runSimRep(workload, seed, traced, tmp)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	r.MaxRSSKB = readUsage().maxRSS
	return json.NewEncoder(os.Stdout).Encode(r)
}

// repTmpDir is where repetitions keep scratch files (profiles, and the
// durable fleet's WAL directories via TMPDIR).
func repTmpDir() (string, error) {
	dir, err := filepath.Abs(filepath.Join(buildDir(), "tmp"))
	if err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
