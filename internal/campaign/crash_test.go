package campaign

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
)

const crashDirEnv = "CAMPAIGN_CRASH_DIR"

// crashSpec is shared between the parent test and the helper process;
// both must address the identical campaign.
func crashSpec() Spec { return kernelSpec(40 * sim.ChunkSize) }

// TestCampaignCrashHelper is not a test of its own: it is the
// subprocess body of TestSIGKILLResumeByteIdentical, re-executed from
// the test binary and killed without warning partway through.
func TestCampaignCrashHelper(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("helper: only runs as a crash-test subprocess")
	}
	st, err := store.Open(store.Options{Dir: dir, Logger: discardLogger()})
	if err != nil {
		t.Fatalf("helper: opening store: %v", err)
	}
	defer st.Close()
	if _, _, err := (&Runner{
		Store: st, Workers: 2, Logger: discardLogger(),
	}).Run(context.Background(), crashSpec()); err != nil {
		t.Fatalf("helper run: %v", err)
	}
}

// TestSIGKILLResumeByteIdentical is the acceptance witness for the
// whole subsystem: a campaign process killed with SIGKILL — no
// deferred cleanup, no flushes, possibly mid-write — resumes from its
// durable checkpoints and produces a final report byte-identical to a
// never-interrupted serial run: the helper computes on 2 workers and the
// resume on 4, so the one comparison also pins serial-vs-parallel
// identity across the crash.
func TestSIGKILLResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a subprocess")
	}
	spec := crashSpec()
	wantChunks := int64(spec.Experiments[0].Trials / sim.ChunkSize)

	golden, _, err := (&Runner{
		Store: openStore(t, t.TempDir()), Workers: 1, Logger: discardLogger(),
	}).Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestCampaignCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper: %v", err)
	}

	// The index log is fsynced per record, so two visible checkpoint
	// puts mean at least one checkpoint object is fully durable while
	// most of the campaign is still ahead of the helper.
	indexPath := filepath.Join(dir, "index.log")
	deadline := time.Now().Add(2 * time.Minute)
	for {
		data, _ := os.ReadFile(indexPath)
		if strings.Count(string(data), `"kind":"checkpoint"`) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("helper produced no checkpoints within the deadline")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("killing helper: %v", err)
	}
	_ = cmd.Wait() // the kill is the expected exit

	st := openStore(t, dir)
	report, stats, err := (&Runner{
		Store: st, Workers: 4, Logger: discardLogger(),
	}).Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("resume after SIGKILL: %v", err)
	}
	if report != golden {
		t.Errorf("post-crash report differs from uninterrupted run:\n--- resumed\n%s\n--- golden\n%s", report, golden)
	}
	if stats.ChunksResumed == 0 {
		t.Error("resume replayed no checkpointed chunks")
	}
	if got := stats.ChunksResumed + stats.ChunksComputed; got != wantChunks {
		t.Errorf("resumed %d + computed %d = %d chunks, want %d",
			stats.ChunksResumed, stats.ChunksComputed, got, wantChunks)
	}
}
