package fsx_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fsx"
)

func TestAtomicWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	want := []byte("hello durable world")
	if err := fsx.AtomicWriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
}

func TestAtomicWriteFileOverwrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := fsx.AtomicWriteFile(path, []byte("old old old")); err != nil {
		t.Fatal(err)
	}
	if err := fsx.AtomicWriteFile(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("read back %q, want %q", got, "new")
	}
}

func TestAtomicWriteFileLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := fsx.AtomicWriteFile(filepath.Join(dir, "a"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A write into a missing directory fails and must clean up after
	// itself too.
	if err := fsx.AtomicWriteFile(filepath.Join(dir, "missing", "b"), []byte("x")); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

func TestSyncDir(t *testing.T) {
	if err := fsx.SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a fresh directory: %v", err)
	}
	if err := fsx.SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory succeeded")
	}
}

// TestRemoveTemps: the temp files of killed writers go, every other
// file stays, and a missing directory is not an error.
func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".tmp-123", ".tmp-abc", "block-000001.json", "campaign.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := fsx.RemoveTemps(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if strings.Join(left, ",") != "block-000001.json,campaign.json" {
		t.Errorf("left %v, want the two result files", left)
	}
	if err := fsx.RemoveTemps(filepath.Join(dir, "missing")); err != nil {
		t.Errorf("missing dir: %v", err)
	}
}
