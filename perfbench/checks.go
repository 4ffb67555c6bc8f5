package main

import (
	"fmt"
	"math"

	"croesus/internal/cluster"
	"croesus/internal/detect"
	"croesus/internal/tcpnet"
	"croesus/internal/video"
)

// Output checks. They test invariants of the program's outputs rather
// than byte goldens, so a change that deliberately alters the value
// streams (a new random source, say) still passes while a dropped frame,
// a miscounted outcome or a wrong final label fails. Each returns the
// list of violated invariants; empty means correct.

// coldF1Band bounds the fleet-cold mean final F1. Measured at 0.899–0.903
// over seeds 11–16; with no cloud correction reaching the cameras it
// falls to about 0.45. The band leaves room for a deliberate change of
// the value streams.
var coldF1Band = [2]float64{0.80, 0.98}

// checkFleetCold checks an unsharded fleet report.
func checkFleetCold(rep *cluster.ClusterReport) []string {
	var bad []string
	failf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if want := coldCameras * coldFrames; rep.Frames != want {
		failf("answered %d frames, want cameras×frames = %d", rep.Frames, want)
	}
	if len(rep.Cameras) != coldCameras {
		failf("%d camera reports, want %d", len(rep.Cameras), coldCameras)
	}
	checkOutcomeSums(rep, failf)
	for _, cr := range rep.Cameras {
		if cr.Summary.Frames != coldFrames || cr.Dropped != 0 {
			failf("camera %s: %d frames answered, %d dropped, want %d and 0",
				cr.Camera, cr.Summary.Frames, cr.Dropped, coldFrames)
		}
	}
	if rep.Lost != 0 {
		failf("%d validations lost in transit on a fault-free fleet", rep.Lost)
	}
	if rep.Batcher.Frames != rep.Validated {
		failf("batcher carried %d frames, report has %d validated", rep.Batcher.Frames, rep.Validated)
	}
	if f1 := rep.MeanF1Final; math.IsNaN(f1) || f1 < coldF1Band[0] || f1 > coldF1Band[1] {
		failf("mean final F1 %.4f outside [%.2f, %.2f]", f1, coldF1Band[0], coldF1Band[1])
	}
	return bad
}

// checkOutcomeSums checks that every frame is validated, shed, lost or
// answered at the edge alone, per camera and across the fleet, that the
// batcher carried exactly the validated frames and shed exactly the shed
// ones, and that no flush broke the SLO.
func checkOutcomeSums(rep *cluster.ClusterReport, failf func(string, ...any)) {
	var frames, validated, shed, lost int
	for _, cr := range rep.Cameras {
		s := cr.Summary
		sent := int(math.Round(s.BU * float64(s.Frames)))
		edgeOnly := s.Frames - sent
		if s.Validated+s.Shed+s.CloudLost+edgeOnly != s.Frames || edgeOnly < 0 {
			failf("camera %s: validated %d + shed %d + lost %d + edge-only %d != %d frames",
				cr.Camera, s.Validated, s.Shed, s.CloudLost, edgeOnly, s.Frames)
		}
		frames += s.Frames
		validated += s.Validated
		shed += s.Shed
		lost += s.CloudLost
	}
	if frames != rep.Frames || validated != rep.Validated || shed != rep.Shed || lost != rep.Lost {
		failf("per-camera sums (frames %d, validated %d, shed %d, lost %d) != fleet totals (%d, %d, %d, %d)",
			frames, validated, shed, lost, rep.Frames, rep.Validated, rep.Shed, rep.Lost)
	}
	bs := rep.Batcher
	if bs.Shed != rep.Shed {
		failf("batcher shed %d requests, frames report %d shed", bs.Shed, rep.Shed)
	}
	if bs.SLOViolations != 0 {
		failf("%d batcher SLO violations (max flush wait %s)", bs.SLOViolations, bs.MaxFlushWait)
	}
}

// checkShardedGraph checks the sharded, durable graph fleet. durErr is
// the fault injector's durability verdict over the partition logs.
func checkShardedGraph(rep *cluster.ClusterReport, durErr error) []string {
	var bad []string
	failf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if durErr != nil {
		failf("durability: %v", durErr)
	}
	checkOutcomeSums(rep, failf)
	if len(rep.Sections) != len(graphSpec().Nodes) {
		failf("%d graph sections reported, want %d", len(rep.Sections), len(graphSpec().Nodes))
	}
	// One edge_crash and one twopc_crash, each restarted.
	if f := rep.Faults; f == nil {
		failf("no fault report from a fleet with a crash timeline")
	} else if f.Crashes != 2 || f.Restarts != 2 {
		failf("%d crashes / %d restarts, want 2 / 2 from the timeline", f.Crashes, f.Restarts)
	}
	migrated := fmt.Sprintf("cam%03d", graphMigrateCam)
	if d := rep.Dynamic; d == nil || d.Migrations != 1 || d.MigrationsFailed != 0 {
		failf("migration of %s did not complete: %+v", migrated, d)
	}
	for _, cr := range rep.Cameras {
		if cr.Camera == migrated && cr.Edge != edgeID(graphEdges-1) {
			failf("camera %s ends on %s, want %s", migrated, cr.Edge, edgeID(graphEdges-1))
		}
	}
	// Frames can be lost only while an edge is down: at most the crashed
	// edge's cameras' frames across the outage, plus one in flight each.
	dropped := 0
	for _, cr := range rep.Cameras {
		dropped += cr.Dropped
	}
	camsPerEdge := graphCameras / graphEdges
	fps := video.AllProfiles()[0].FPS
	maxLost := camsPerEdge * (int(graphCrashRestart.Seconds()*fps) + 1)
	if rep.Frames+dropped != graphCameras*graphFrames || dropped > maxLost {
		failf("answered %d + dropped %d frames of %d; at most %d may drop in the modeled outage",
			rep.Frames, dropped, graphCameras*graphFrames, maxLost)
	}
	return bad
}

// checkTCP checks one edge-cloud-tcp run. results[i] is frame i's reply
// record, nil when no final reply arrived in time (counted as failed, not
// as a check failure). cloudModel is a fresh model of the cloud server's
// seed: a frame the cloud validated must end with exactly its labels.
func checkTCP(frames []*video.Frame, results []*tcpnet.FrameResult, cloudModel detect.Model,
	served, handled int64, bs cluster.BatcherStats) []string {
	var bad []string
	failf := func(format string, args ...any) {
		if len(bad) < 10 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	answered, validated, shed := 0, 0, 0
	for i, r := range results {
		if r == nil {
			continue
		}
		answered++
		if r.FrameIndex != i {
			failf("frame %d: reply carries index %d", i, r.FrameIndex)
		}
		if r.InitialLatency <= 0 || r.FinalLatency <= 0 {
			failf("frame %d: missing reply (initial %v, final %v)", i, r.InitialLatency, r.FinalLatency)
		}
		if r.FinalLatency < r.InitialLatency {
			failf("frame %d: final reply %v before initial %v", i, r.FinalLatency, r.InitialLatency)
		}
		if r.Shed {
			shed++
		}
		if !r.SentToCloud || r.Shed {
			continue
		}
		validated++
		if want := cloudModel.Detect(frames[i]).Detections; !sameLabels(r.Final, want) {
			failf("frame %d: final labels %v, cloud model says %v", i, labels(r.Final), labels(want))
		}
	}
	if served != int64(answered) {
		failf("edge served %d frames, client has %d final replies", served, answered)
	}
	if handled != int64(validated) || int64(bs.Frames) != handled {
		failf("cloud handled %d, batcher carried %d, client saw %d validated frames", handled, bs.Frames, validated)
	}
	// The batcher's SLO is not checked here: at time scale 0.001 its 60 ms
	// are 60 µs of wall time, below what the Go scheduler can promise.
	if bs.Shed != shed {
		failf("batcher shed %d, client saw %d shed frames", bs.Shed, shed)
	}
	return bad
}

func sameLabels(a, b []detect.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Label != b[i].Label || a[i].Box != b[i].Box || a[i].TrackID != b[i].TrackID {
			return false
		}
	}
	return true
}

func labels(ds []detect.Detection) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Label
	}
	return out
}
