// Package fsx holds the crash-durability file primitives shared by every
// component that persists state: the sharded campaign's block and shard
// results (internal/sim) and the durable checkpoint store
// (internal/store).
//
// The discipline is the standard one: write to a temp file in the target
// directory, fsync the file, rename over the destination, then fsync the
// directory so the rename itself is durable. Rename-without-fsync only
// protects against a kill of the *writer* (the destination is never
// half-written); it does not protect against a crash of the *host*, after
// which the filesystem may expose an empty or partial file under the final
// name. Checkpoint stores exist precisely to survive host crashes, so the
// full discipline is not optional here.
package fsx

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
)

// tempPrefix begins the name of every temp file AtomicWriteFile makes.
// The rest of the name is random, so concurrent writers of one path
// never share a temp file.
const tempPrefix = ".tmp-"

// AtomicWriteFile durably writes data to path: temp file in path's
// directory, write, fsync, rename, directory fsync. After it returns nil,
// a crash at any later point leaves either the previous content or the
// new content at path — never a mix, never a truncation.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return SyncDir(dir)
}

// RemoveTemps removes from dir the temp files that AtomicWriteFile
// leaves behind when its process is killed mid-write. A temp file of a
// live writer would go too, failing that writer's rename, so only a
// caller that knows no other process writes into dir may call it. A
// missing dir holds nothing to remove.
func RemoveTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasPrefix(e.Name(), tempPrefix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// SyncDir fsyncs a directory, making recent renames/creates/removes in it
// durable. On filesystems that refuse directory fsync the error is
// surfaced; callers for whom durability is best-effort may ignore it
// explicitly.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
