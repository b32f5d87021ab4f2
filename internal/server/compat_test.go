package server

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/overlay"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// parentWALFixture is the one WAL segment (wal-0000000000000001.log) of a
// state directory written by the build before the binary wire codec: project
// "proj" under threeCmdCtl, c1 and c2 assigned to w1, one two-frame chunk
// ingested for c2, c1's result ingested, then a hard stop. The Data of its
// command-queued, frame-chunk and result records are gob blobs. Captured;
// do not regenerate from current code.
const parentWALFixture = "CPCWAL01\x00\x00\x01y\x87uF\xf6\xff\x87\xff\x85\x03\x01\x01\x06Record\x01\xff\x86\x00\x01\v\x01\x03Seq\x01\x06\x00\x01\x04Time\x01\x04\x00\x01\x04Type\x01\x06\x00\x01\aProject\x01\f\x00\x01\aCommand\x01\f\x00\x01\x06Worker\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\nGeneration\x01\x04\x00\x01\x05Count\x01\x04\x00\x01\x04Note\x01\f\x00\x01\x04Data\x01\n\x00\x00\x00\xff\xee\xff\x86\x01\x01\x01\xf81\xb1\xd6bJ\xc0\xacH\x01\x02\x01\x04proj\x01\x02c1\x06\xff\xd0\xff\xa5\xff\x83\x03\x01\x01\vCommandSpec\x01\xff\x84\x00\x01\f\x01\x02ID\x01\f\x00\x01\aProject\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\x06Origin\x01\f\x00\x01\x04Type\x01\f\x00\x01\bMinCores\x01\x04\x00\x01\bMaxCores\x01\x04\x00\x01\bPriority\x01\x04\x00\x01\aPayload\x01\n\x00\x01\nCheckpoint\x01\n\x00\x01\x06GangID\x01\f\x00\x01\bGangSize\x01\x04\x00\x00\x00(\xff\x84\x01\x02c1\x01\x04proj\x02\x10866f42dddf1ef3dc\x01\x03sim\x01\x02\x01\x02\x00\x00\x00\x00\x01y\xef\x04<\x87\xff\x87\xff\x85\x03\x01\x01\x06Record\x01\xff\x86\x00\x01\v\x01\x03Seq\x01\x06\x00\x01\x04Time\x01\x04\x00\x01\x04Type\x01\x06\x00\x01\aProject\x01\f\x00\x01\aCommand\x01\f\x00\x01\x06Worker\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\nGeneration\x01\x04\x00\x01\x05Count\x01\x04\x00\x01\x04Note\x01\f\x00\x01\x04Data\x01\n\x00\x00\x00\xff\xee\xff\x86\x01\x02\x01\xf81\xb1\xd6bJ\xc2\xeb\x8c\x01\x02\x01\x04proj\x01\x02c2\x06\xff\xd0\xff\xa5\xff\x83\x03\x01\x01\vCommandSpec\x01\xff\x84\x00\x01\f\x01\x02ID\x01\f\x00\x01\aProject\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\x06Origin\x01\f\x00\x01\x04Type\x01\f\x00\x01\bMinCores\x01\x04\x00\x01\bMaxCores\x01\x04\x00\x01\bPriority\x01\x04\x00\x01\aPayload\x01\n\x00\x01\nCheckpoint\x01\n\x00\x01\x06GangID\x01\f\x00\x01\bGangSize\x01\x04\x00\x00\x00(\xff\x84\x01\x02c2\x01\x04proj\x02\x10866f42dddf1ef3dc\x01\x03sim\x01\x02\x01\x02\x00\x00\x00\x00\x01ya\u01c16\xff\x87\xff\x85\x03\x01\x01\x06Record\x01\xff\x86\x00\x01\v\x01\x03Seq\x01\x06\x00\x01\x04Time\x01\x04\x00\x01\x04Type\x01\x06\x00\x01\aProject\x01\f\x00\x01\aCommand\x01\f\x00\x01\x06Worker\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\nGeneration\x01\x04\x00\x01\x05Count\x01\x04\x00\x01\x04Note\x01\f\x00\x01\x04Data\x01\n\x00\x00\x00\xff\xee\xff\x86\x01\x03\x01\xf81\xb1\xd6bJ\xc3l\x1c\x01\x02\x01\x04proj\x01\x02c3\x06\xff\xd0\xff\xa5\xff\x83\x03\x01\x01\vCommandSpec\x01\xff\x84\x00\x01\f\x01\x02ID\x01\f\x00\x01\aProject\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\x06Origin\x01\f\x00\x01\x04Type\x01\f\x00\x01\bMinCores\x01\x04\x00\x01\bMaxCores\x01\x04\x00\x01\bPriority\x01\x04\x00\x01\aPayload\x01\n\x00\x01\nCheckpoint\x01\n\x00\x01\x06GangID\x01\f\x00\x01\bGangSize\x01\x04\x00\x00\x00(\xff\x84\x01\x02c3\x01\x04proj\x02\x10866f42dddf1ef3dc\x01\x03sim\x01\x02\x01\x02\x00\x00\x00\x00\x00\xaa\xc76\xba\xe6\xff\x87\xff\x85\x03\x01\x01\x06Record\x01\xff\x86\x00\x01\v\x01\x03Seq\x01\x06\x00\x01\x04Time\x01\x04\x00\x01\x04Type\x01\x06\x00\x01\aProject\x01\f\x00\x01\aCommand\x01\f\x00\x01\x06Worker\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\nGeneration\x01\x04\x00\x01\x05Count\x01\x04\x00\x01\x04Note\x01\f\x00\x01\x04Data\x01\n\x00\x00\x00 \xff\x86\x01\x04\x01\xf81\xb1\xd6bJ\u00eeN\x01\b\x01\x04proj\x06\astarted\x00\x00\x00\x00\xa7\xaae&\xeb\xff\x87\xff\x85\x03\x01\x01\x06Record\x01\xff\x86\x00\x01\v\x01\x03Seq\x01\x06\x00\x01\x04Time\x01\x04\x00\x01\x04Type\x01\x06\x00\x01\aProject\x01\f\x00\x01\aCommand\x01\f\x00\x01\x06Worker\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\nGeneration\x01\x04\x00\x01\x05Count\x01\x04\x00\x01\x04Note\x01\f\x00\x01\x04Data\x01\n\x00\x00\x00\x1d\xff\x86\x01\x05\x01\xf81\xb1\xd6bJ\xc4..\x01\x01\x01\x04proj\x06\x04test\x00\x00\x00\x00\xa9^\x80eA\xff\x87\xff\x85\x03\x01\x01\x06Record\x01\xff\x86\x00\x01\v\x01\x03Seq\x01\x06\x00\x01\x04Time\x01\x04\x00\x01\x04Type\x01\x06\x00\x01\aProject\x01\f\x00\x01\aCommand\x01\f\x00\x01\x06Worker\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\nGeneration\x01\x04\x00\x01\x05Count\x01\x04\x00\x01\x04Note\x01\f\x00\x01\x04Data\x01\n\x00\x00\x00\x1f\xff\x86\x01\x06\x01\xf81\xb1\xd6bJ\xd2\xd7\xd8\x01\x03\x01\x04proj\x01\x02c1\x01\x02w1\x00\x00\x00\x00\xa9\xe9D\az\xff\x87\xff\x85\x03\x01\x01\x06Record\x01\xff\x86\x00\x01\v\x01\x03Seq\x01\x06\x00\x01\x04Time\x01\x04\x00\x01\x04Type\x01\x06\x00\x01\aProject\x01\f\x00\x01\aCommand\x01\f\x00\x01\x06Worker\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\nGeneration\x01\x04\x00\x01\x05Count\x01\x04\x00\x01\x04Note\x01\f\x00\x01\x04Data\x01\n\x00\x00\x00\x1f\xff\x86\x01\a\x01\xf81\xb1\xd6bJ\xd3\xc6v\x01\x03\x01\x04proj\x01\x02c2\x01\x02w1\x00\x00\x00\x01\x90\xac\x96\x90P\xff\x87\xff\x85\x03\x01\x01\x06Record\x01\xff\x86\x00\x01\v\x01\x03Seq\x01\x06\x00\x01\x04Time\x01\x04\x00\x01\x04Type\x01\x06\x00\x01\aProject\x01\f\x00\x01\aCommand\x01\f\x00\x01\x06Worker\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\nGeneration\x01\x04\x00\x01\x05Count\x01\x04\x00\x01\x04Note\x01\f\x00\x01\x04Data\x01\n\x00\x00\x00\xfe\x01\x04\xff\x86\x01\b\x01\xf81\xb1\xd6bJ\xdf\xd6\xc8\x01\r\x01\x04proj\x01\x02c2\x01\x02w1\x05\xff\xe2\xff\x81\xff\x95\x03\x01\x01\nFrameChunk\x01\xff\x96\x00\x01\t\x01\aProject\x01\f\x00\x01\tCommandID\x01\f\x00\x01\bWorkerID\x01\f\x00\x01\x03Seq\x01\x04\x00\x01\nFirstFrame\x01\x04\x00\x01\x05Times\x01\xff\x98\x00\x01\x06Frames\x01\xff\x9a\x00\x01\x04RMSD\x01\xff\x98\x00\x01\x05Final\x01\x02\x00\x00\x00\x17\xff\x97\x02\x01\x01\t[]float64\x01\xff\x98\x00\x01\b\x00\x00\x1a\xff\x99\x02\x01\x01\v[][]float64\x01\xff\x9a\x00\x01\xff\x98\x00\x00+\xff\x96\x01\x04proj\x01\x02c2\x01\x02w1\x02\x02\x01\x02\xfe\xf0?@\x01\x02\x02\xfe\xf0?\x00\x02@\x00\x01\x02\xfe\xf0?\xfe\xf0?\x00\x00\x00\x00\x01q<\x940d\xff\x87\xff\x85\x03\x01\x01\x06Record\x01\xff\x86\x00\x01\v\x01\x03Seq\x01\x06\x00\x01\x04Time\x01\x04\x00\x01\x04Type\x01\x06\x00\x01\aProject\x01\f\x00\x01\aCommand\x01\f\x00\x01\x06Worker\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\nGeneration\x01\x04\x00\x01\x05Count\x01\x04\x00\x01\x04Note\x01\f\x00\x01\x04Data\x01\n\x00\x00\x00\xff\xe6\xff\x86\x01\t\x01\xf81\xb1\xd6bJ\xe9?V\x01\x05\x01\x04proj\x01\x02c1\x01\x02w1\x05\xff\xc4\xff\xa6\xff\x9b\x03\x01\x01\rCommandResult\x01\xff\x9c\x00\x01\v\x01\tCommandID\x01\f\x00\x01\aProject\x01\f\x00\x01\bWorkerID\x01\f\x00\x01\x02OK\x01\x02\x00\x01\aPartial\x01\x02\x00\x01\x05Error\x01\f\x00\x01\x06Output\x01\n\x00\x01\nOutputPath\x01\f\x00\x01\nCheckpoint\x01\n\x00\x01\tCoresUsed\x01\x04\x00\x01\vWallSeconds\x01\b\x00\x00\x00\x1b\xff\x9c\x01\x02c1\x01\x04proj\x01\x02w1\x01\x01\x03\x06out-c1\x00\x00"

// TestRecoversParentWrittenStateDir: a durable server restarted on a state
// directory the previous build wrote resumes its project from the gob blobs,
// journals what follows in the binary encoding, and a second restart replays
// the mixed log.
func TestRecoversParentWrittenStateDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), []byte(parentWALFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir)
	old := len(st.Recovered().Records)
	if old != 9 || st.Recovered().Torn != "" {
		t.Fatalf("parent WAL read as %d records (torn %q), want 9 intact", old, st.Recovered().Torn)
	}
	ctrl := threeCmdCtl()
	r := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st}, ctrl)
	if pst, ok := r.srv.Project("proj"); !ok || pst.State != "running" || pst.Finished != 1 {
		t.Fatalf("recovered project: %+v ok=%v", pst, ok)
	}
	if fin, _ := ctrl.counts(); fin != 1 || string(ctrl.finished[0].Output) != "out-c1" {
		t.Fatalf("replayed %d completions (%+v), want c1's once", fin, ctrl.finished)
	}
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w2", 3), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 2 || wl.Commands[0].Type != "sim" || wl.Commands[0].Project != "proj" {
		t.Fatalf("recovered queue handed out %+v, want c2 and c3", wl.Commands)
	}
	sendResult(t, r, "c2", "w2")
	r.srv.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	recs := st2.Recovered().Records
	if len(recs) <= old {
		t.Fatalf("no records journaled after recovery: %d", len(recs))
	}
	if last := recs[len(recs)-1]; last.Command != "c2" || len(last.Data) == 0 || last.Data[0] != 0 {
		t.Fatalf("last record = %+v, want c2's result in the binary encoding", last)
	}
	ctrl2 := threeCmdCtl()
	r2 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st2}, ctrl2)
	if fin, _ := ctrl2.counts(); fin != 2 {
		t.Fatalf("mixed log replayed %d completions, want 2", fin)
	}
	if err := r2.request(t, wire.MsgAnnounce, announce("w3", 3), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "c3" {
		t.Fatalf("second recovery handed out %+v, want c3", wl.Commands)
	}
	sendResult(t, r2, "c3", "w3")
	fst, err := r2.srv.WaitProject(ctxTimeout(t, 2*time.Second), "proj")
	if err != nil || fst.State != "finished" {
		t.Fatalf("state = %q (%s), err %v", fst.State, fst.Note, err)
	}
}

// TestRecoversParentWrittenStateDirFinished: testdata/finished_project.wal is
// the WAL segment a build that still journaled command-queued, generation and
// project-finished records wrote for project "proj" under threeCmdCtl — c1
// and c2 assigned to w1, a checkpoint for c2, c1's result, c3 assigned to w2
// and its result, then c2's, which finished the project. Captured; do not
// regenerate from current code. Replay skips the derived records and must
// still end the project, from the results alone, with the result it had.
func TestRecoversParentWrittenStateDirFinished(t *testing.T) {
	raw, err := os.ReadFile("testdata/finished_project.wal")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir)
	t.Cleanup(func() { st.Close() }) // after the rig's server
	var types []string
	for _, rec := range st.Recovered().Records {
		types = append(types, rec.Type.String())
	}
	if !slices.Contains(types, store.RecProjectFinished.String()) || st.Recovered().Torn != "" {
		t.Fatalf("fixture reads as %v (torn %q), want an intact log that ends the project", types, st.Recovered().Torn)
	}
	ctrl := threeCmdCtl()
	r := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st}, ctrl)
	pst, ok := r.srv.Project("proj")
	if !ok || pst.State != "finished" || string(pst.Result) != "done" ||
		pst.Finished != 3 || pst.Queued+pst.Running != 0 || pst.Note != "started" {
		t.Fatalf("recovered project: %+v ok=%v, want finished with result \"done\"", pst, ok)
	}
	if fin, _ := ctrl.counts(); fin != 3 {
		t.Fatalf("replay drove %d completions, want 3", fin)
	}
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w3", 4), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 0 {
		t.Fatalf("finished project's commands handed out again: %+v", wl.Commands)
	}
}

// TestRecoversParentWrittenStateDirBAR: testdata/bar_finished_state is the
// state directory a build that minted bare command IDs (bar-w00-c00008, not
// bar/bar-w00-c00008) and journaled project-finished wrote for a three-round
// BAR project "bar": a snapshot taken in round 2, then a WAL tail with the
// last round-2 result, round 3's commands and results, and the record that
// finished the project. Captured; do not regenerate from current code.
// Replay re-submits round 3 under qualified IDs, so the tail names those
// commands bare; their results must still count, and the project must come
// back finished with the result it finished with.
func TestRecoversParentWrittenStateDirBAR(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snap-0000000000000002.snap", "wal-0000000000000002.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "bar_finished_state", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := openTestStore(t, dir)
	t.Cleanup(func() { st.Close() }) // after the server
	var want []byte
	for _, rec := range st.Recovered().Records {
		if rec.Type == store.RecProjectFinished {
			want = rec.Data
		}
	}
	if len(want) == 0 || st.Recovered().Snapshot == nil || st.Recovered().Torn != "" {
		t.Fatalf("fixture reads without a snapshot, a finished record or intact (torn %q)", st.Recovered().Torn)
	}
	node := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), overlay.NewMemNetwork().Transport())
	srv := New(node, controller.DefaultRegistry(), Config{HeartbeatInterval: time.Hour, Store: st})
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	checkBARFinished(t, srv, want)

	// Upgrade: a snapshot cut now is written in the binary format, replaces
	// the gob one, and a restart from it alone recovers the same project.
	if err := srv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	node.Close()
	st.Close()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 || filepath.Base(snaps[0]) == "snap-0000000000000002.snap" {
		t.Fatalf("snapshots after the upgrade: %v (%v), want one new one", snaps, err)
	}
	if raw, err := os.ReadFile(snaps[0]); err != nil || !bytes.HasPrefix(raw, []byte("CPCSNAP2")) {
		t.Fatalf("new snapshot opens with %.8q (%v), want CPCSNAP2", raw, err)
	}
	st2 := openTestStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	if rec := st2.Recovered(); rec.Snapshot == nil || len(rec.Records) != 0 || rec.Torn != "" || rec.Gap != "" {
		t.Fatalf("reopened from the new snapshot: snapshot %v, %d tail records, torn %q, gap %q",
			rec.Snapshot != nil, len(rec.Records), rec.Torn, rec.Gap)
	}
	node2 := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), overlay.NewMemNetwork().Transport())
	srv2 := New(node2, controller.DefaultRegistry(), Config{HeartbeatInterval: time.Hour, Store: st2})
	t.Cleanup(func() {
		srv2.Close()
		node2.Close()
	})
	checkBARFinished(t, srv2, want)
}

// checkBARFinished requires srv to hold project "bar" finished after its
// twelve commands, with the BARResult the captured log finished it with.
func checkBARFinished(t *testing.T, srv *Server, want []byte) {
	t.Helper()
	pst, ok := srv.Project("bar")
	if !ok || pst.State != "finished" || pst.Finished != 12 || pst.Queued+pst.Running != 0 {
		t.Fatalf("recovered project: state %q (%s), finished %d, queued %d, running %d; want finished 12",
			pst.State, pst.Note, pst.Finished, pst.Queued, pst.Running)
	}
	// Compared decoded: gob numbers types in the order a process first meets
	// them, so equal results need not be equal bytes across processes.
	var got, was controller.BARResult
	if err := wire.Unmarshal(pst.Result, &got); err != nil {
		t.Fatal(err)
	}
	if err := wire.Unmarshal(want, &was); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, was) || got.Rounds != 3 {
		t.Fatalf("recovered result\n  %+v\nthe project finished with\n  %+v", got, was)
	}
}
