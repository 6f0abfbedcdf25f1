package main

import (
	"io/fs"
	"strings"
	"sync/atomic"
	"time"

	"medvault/internal/faultfs"
)

// countFS is the device-level layer of the traced run: a faultfs.FS that
// counts and times what passes through it and changes nothing. Opened under
// a vault (vaultcfg.Options.FS) it sees every write, read and fsync the
// vault performs; with one caller the counts repeat exactly.
type countFS struct {
	faultfs.FS // the real filesystem; every method not overridden passes through

	syncs, writes, reads atomic.Int64
	writeBytes, walBytes atomic.Int64 // walBytes: the share of writeBytes that went to meta.wal
	syncNanos            atomic.Int64
}

func newCountFS() *countFS { return &countFS{FS: faultfs.OS{}} }

// fsCounts is a reading of the counters; two readings subtract.
type fsCounts struct {
	syncs, writes, reads, writeBytes, walBytes int64
	syncTime                                   time.Duration
}

func (c *countFS) read() fsCounts {
	return fsCounts{
		syncs: c.syncs.Load(), writes: c.writes.Load(), reads: c.reads.Load(),
		writeBytes: c.writeBytes.Load(), walBytes: c.walBytes.Load(),
		syncTime: time.Duration(c.syncNanos.Load()),
	}
}

func (a fsCounts) add(b fsCounts) fsCounts {
	return fsCounts{
		syncs: a.syncs + b.syncs, writes: a.writes + b.writes, reads: a.reads + b.reads,
		writeBytes: a.writeBytes + b.writeBytes, walBytes: a.walBytes + b.walBytes,
		syncTime: a.syncTime + b.syncTime,
	}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		syncs: a.syncs - b.syncs, writes: a.writes - b.writes, reads: a.reads - b.reads,
		writeBytes: a.writeBytes - b.writeBytes, walBytes: a.walBytes - b.walBytes,
		syncTime: a.syncTime - b.syncTime,
	}
}

func isWAL(name string) bool { return strings.HasSuffix(name, "meta.wal") }

// OpenFile wraps the handle so its writes, reads and syncs are counted.
func (c *countFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, wal: isWAL(name)}, nil
}

// WriteFile is how snapshots and small control files are written.
func (c *countFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	c.writes.Add(1)
	c.writeBytes.Add(int64(len(data)))
	return c.FS.WriteFile(name, data, perm)
}

type countFile struct {
	faultfs.File
	fs  *countFS
	wal bool
}

func (f *countFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(len(p)))
	if f.wal {
		f.fs.walBytes.Add(int64(len(p)))
	}
	return f.File.Write(p)
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	return f.File.ReadAt(p, off)
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncNanos.Add(int64(time.Since(t0)))
	f.fs.syncs.Add(1)
	return err
}
