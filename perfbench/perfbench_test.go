package main

import (
	"bytes"
	"errors"
	"runtime/pprof"
	"testing"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/detect"
	"croesus/internal/scenario"
	"croesus/internal/tcpnet"
	"croesus/internal/vclock"
)

// The printed metric names and units must be exactly BENCHMARK.json's.
func TestPrintedMetricsMatchSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
	for _, w := range workloads {
		rep := &repResult{
			SetupS: 0.01, WallS: 1, CPUS: 1, MaxRSSKB: 1 << 10,
			Attempted: 10, Answered: 10,
			InitialMs: []float64{1, 2}, FinalMs: []float64{3, 4},
			Counters: map[string]float64{}, CPUByLayer: map[string]int64{"core": 1},
		}
		if err := matchSpec(endToEndMetrics(w, []*repResult{rep}).Metrics, spec.EndToEnd); err != nil {
			t.Errorf("%s end-to-end: %v", w, err)
		}
		traced := *rep
		traced.Traced = true
		if err := matchSpec(layerMetrics(w, []*repResult{rep, &traced}).Metrics, spec.PerLayer); err != nil {
			t.Errorf("%s per-layer: %v", w, err)
		}
	}
	if err := matchSpec(map[string]metric{"frames_per_s": {1, "1/s"}}, spec.EndToEnd); err == nil {
		t.Error("matchSpec accepted a result missing metrics")
	}
}

// runSim runs a generated simulated workload once and returns its report
// and, for the durable fleet, the durability verdict.
func runSim(t *testing.T, workload string) (*cluster.ClusterReport, error) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	rt, err := scenario.New(simScenario(workload, 3), vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Cluster.Close()
	rep := rt.Run()
	var durErr error
	if inj := rt.Cluster.Injector(); inj != nil {
		durErr = inj.VerifyDurability()
	}
	return rep, durErr
}

func TestFleetColdChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet")
	}
	rep, _ := runSim(t, wFleetCold)
	if bad := checkFleetCold(rep); len(bad) > 0 {
		t.Fatalf("correct report fails its checks: %v", bad)
	}
	corruptions := map[string]func(r *cluster.ClusterReport){
		"dropped frame": func(r *cluster.ClusterReport) { r.Frames--; r.Cameras[7].Summary.Frames-- },
		"miscounted shed": func(r *cluster.ClusterReport) {
			r.Cameras[3].Summary.Shed++
			r.Shed++
		},
		"batcher disagrees": func(r *cluster.ClusterReport) { r.Batcher.Frames++ },
		"SLO violation":     func(r *cluster.ClusterReport) { r.Batcher.SLOViolations = 1 },
		"F1 out of band":    func(r *cluster.ClusterReport) { r.MeanF1Final = 0.3 },
	}
	for name, corrupt := range corruptions {
		c := copyReport(rep)
		corrupt(c)
		if bad := checkFleetCold(c); len(bad) == 0 {
			t.Errorf("%s: checks passed a corrupted report", name)
		}
	}
}

func TestShardedGraphChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet")
	}
	rep, durErr := runSim(t, wShardedGraph)
	if bad := checkShardedGraph(rep, durErr); len(bad) > 0 {
		t.Fatalf("correct report fails its checks: %v", bad)
	}
	corruptions := map[string]func(r *cluster.ClusterReport) error{
		"lost commit":        func(*cluster.ClusterReport) error { return errors.New("txn 7 committed but missing") },
		"missed restart":     func(r *cluster.ClusterReport) error { r.Faults.Restarts--; return nil },
		"failed migration":   func(r *cluster.ClusterReport) error { r.Dynamic.Migrations = 0; return nil },
		"frames lost":        func(r *cluster.ClusterReport) error { r.Frames -= 40; r.Cameras[5].Dropped += 40; return nil },
		"missing section":    func(r *cluster.ClusterReport) error { r.Sections = r.Sections[:2]; return nil },
		"camera not rehomed": func(r *cluster.ClusterReport) error { r.Cameras[graphMigrateCam].Edge = edgeID(0); return nil },
	}
	for name, corrupt := range corruptions {
		c := copyReport(rep)
		err := corrupt(c)
		if bad := checkShardedGraph(c, err); len(bad) == 0 {
			t.Errorf("%s: checks passed a corrupted report", name)
		}
	}
}

// copyReport deep-copies the parts of a report the corruptions touch.
func copyReport(r *cluster.ClusterReport) *cluster.ClusterReport {
	c := *r
	c.Cameras = append([]cluster.CameraReport(nil), r.Cameras...)
	c.Sections = append([]cluster.SectionReport(nil), r.Sections...)
	if r.Faults != nil {
		f := *r.Faults
		c.Faults = &f
	}
	if r.Dynamic != nil {
		d := *r.Dynamic
		c.Dynamic = &d
	}
	return &c
}

func TestTCPChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the loopback stack")
	}
	const seed, n = 5, 200
	st, err := startTCPStack(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	frames := tcpFrames(seed, n)
	for _, f := range frames {
		if err := st.client.Submit(f, f.SizeBytes); err != nil {
			t.Fatal(err)
		}
	}
	results := make([]*tcpnet.FrameResult, n)
	for i := range frames {
		if results[i], err = st.client.WaitFrame(i, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st.close()
	model := detect.YOLOv3Sim(detect.YOLO416, modelSeed)
	check := func(rs []*tcpnet.FrameResult, served int64) []string {
		return checkTCP(frames, rs, model, served, st.cloud.Handled(), st.cloud.BatcherStats())
	}
	if bad := check(results, st.edge.Served()); len(bad) > 0 {
		t.Fatalf("correct run fails its checks: %v", bad)
	}
	validated := -1
	for i, r := range results {
		if r.SentToCloud && !r.Shed && len(r.Final) > 0 {
			validated = i
			break
		}
	}
	if validated < 0 {
		t.Fatal("no validated frame with labels to corrupt")
	}
	corruptions := map[string]func(rs []*tcpnet.FrameResult){
		"wrong final label": func(rs []*tcpnet.FrameResult) {
			r := *rs[validated]
			r.Final = append([]detect.Detection(nil), r.Final...)
			r.Final[0].Label += "-wrong"
			rs[validated] = &r
		},
		"final before initial": func(rs []*tcpnet.FrameResult) {
			r := *rs[1]
			r.FinalLatency = r.InitialLatency / 2
			rs[1] = &r
		},
		"no initial reply": func(rs []*tcpnet.FrameResult) {
			r := *rs[2]
			r.InitialLatency = 0
			rs[2] = &r
		},
		"dropped frame": func(rs []*tcpnet.FrameResult) { rs[3] = nil },
	}
	for name, corrupt := range corruptions {
		rs := append([]*tcpnet.FrameResult(nil), results...)
		corrupt(rs)
		if bad := check(rs, st.edge.Served()); len(bad) == 0 {
			t.Errorf("%s: checks passed a corrupted run", name)
		}
	}
}

func TestReplayCheck(t *testing.T) {
	a := &repResult{Fingerprint: "aa", StructFingerprint: "11"}
	if !checkReps(wFleetCold, []*repResult{a, a}) {
		t.Error("identical repetitions fail the replay check")
	}
	b := &repResult{Fingerprint: "bb", StructFingerprint: "11"}
	if checkReps(wFleetCold, []*repResult{a, b}) {
		t.Error("differing printed reports pass the replay check")
	}
	if checkReps(wFleetCold, []*repResult{a, {Fingerprint: "aa", Failures: []string{"x"}}}) {
		t.Error("a failed output check passes")
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "croesus/internal/randsrc.Get", "croesus/internal/core.(*WorkloadSource).TxnFor"}, "randsrc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "croesus/internal/txn.(*Manager).Begin"}, "gc"},
		{[]string{"croesus/internal/obs/collect.Merge"}, "obs"},
		{[]string{"syscall.Syscall", "main.main"}, "other"},
		{[]string{"croesus/internal/experiments.Run"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	by, err := p.byLayer("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 || by["other"] <= 0 {
		t.Errorf("allocation profile: %d samples, by layer %v", len(p.samples), by)
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed")
	}
}
