package campaign

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"ensemblekit/internal/telemetry"
)

// corruptEntry flips one bit inside the stored payload of a disk-cache
// entry, simulating bit rot that survives the write-then-rename path.
func corruptEntry(t *testing.T, dir, hash string) {
	t.Helper()
	path := filepath.Join(dir, hash+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit well inside the entry so both the envelope and the
	// payload region are plausible victims; the checksum catches either.
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiskCacheBitFlipEvictsAndReExecutes(t *testing.T) {
	dir := t.TempDir()
	spec := jobFor(t, 1)
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}

	svc1, err := NewService(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc1.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	corruptEntry(t, dir, hash)

	// A fresh service must detect the flip on read, evict the entry, and
	// re-execute instead of serving (or erroring on) the corrupt result.
	svc2, err := NewService(Config{Workers: 1, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	j2, err := svc2.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j2.CacheHit {
		t.Fatal("corrupt entry served as a cache hit")
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatalf("re-execution after corruption failed: %v", err)
	}
	if res2.Objective != res1.Objective || res2.Makespan != res1.Makespan {
		t.Errorf("re-executed result diverged: %+v vs %+v", res2, res1)
	}
	st := svc2.Stats()
	if st.CacheCorrupt != 1 {
		t.Errorf("stats.CacheCorrupt = %d, want 1", st.CacheCorrupt)
	}
	if got := svc2.metrics.cacheCorrupt.Value(); got != 1 {
		t.Errorf("campaign_cache_corrupt_total = %v, want 1", got)
	}
	if st.DiskHits != 0 {
		t.Errorf("disk hits = %d, want 0 (the only entry was corrupt)", st.DiskHits)
	}

	// The re-execution healed the disk tier: a third service gets a
	// verified disk hit again.
	svc3, err := NewService(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	j3, err := svc3.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !j3.CacheHit {
		t.Error("healed entry not served from disk")
	}
}

func TestDiskCacheLegacyEntryTreatedAsMiss(t *testing.T) {
	dir := t.TempDir()
	spec := jobFor(t, 1)
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// A pre-envelope entry: a bare Result with no checksum wrapper.
	if err := os.WriteFile(filepath.Join(dir, hash+".json"),
		[]byte(`{"hash":"`+hash+`","objective":0.5}`), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := NewService(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	j, err := svc.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j.CacheHit {
		t.Fatal("unchecksummed entry served as a cache hit")
	}
	if res, err := j.Wait(context.Background()); err != nil || res == nil {
		t.Fatalf("re-execution: res=%v err=%v", res, err)
	}
	if st := svc.Stats(); st.CacheCorrupt != 1 {
		t.Errorf("stats.CacheCorrupt = %d, want 1", st.CacheCorrupt)
	}
	if _, err := os.Stat(filepath.Join(dir, hash+".json")); err != nil {
		t.Errorf("healed entry missing: %v", err)
	}
}

func TestDecodeDiskEntryRejectsTamperedChecksum(t *testing.T) {
	res, err := decodeDiskEntry([]byte(`{"sha256":"0000","result":{"hash":"x"}}`))
	if err == nil || res != nil {
		t.Fatalf("tampered checksum accepted: res=%v err=%v", res, err)
	}
	if _, err := decodeDiskEntry([]byte(`not json`)); err == nil {
		t.Fatal("undecodable envelope accepted")
	}
	if _, err := decodeDiskEntry([]byte(`{"result":{"hash":"x"}}`)); err == nil {
		t.Fatal("entry without checksum accepted")
	}
}
