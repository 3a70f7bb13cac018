package inject

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"harpocrates/internal/obs"
)

// goldenDisk is the golden cache's persistence tier: a 16-way sharded
// on-disk index of encoded HXGA bundles. A pull worker that restarts
// mid-campaign re-leases shards of jobs whose goldens it already
// computed; this tier turns those recomputations into one decode.
//
// The format mirrors the queue result cache's segment files: each
// shard owns one append-only log of CRC-framed records and a torn tail
// from a crashed writer is truncated at open. A key's value is
// content-determined, so put keeps the first record; a later record for
// the same key only exists because the earlier one no longer decoded
// (drop), and replay lets it supersede. Only the index
// lives in memory — decoded bundles are held (and refcounted) by the
// in-process tier, so this layer never caches payloads.
type goldenDisk struct {
	dir    string
	shards [goldenShards]goldenDiskShard
}

const (
	// goldenFrameSize: two key words + payload length + CRC.
	goldenFrameSize = 2*8 + 4 + 4

	// maxGoldenValue bounds one encoded bundle. Checkpoint cores carry
	// full memory images, so bundles are MBs where shard results are
	// KBs; the bound only rejects corrupt frames.
	maxGoldenValue = 256 << 20
)

type goldenSegRef struct {
	off int64
	n   int32
}

type goldenDiskShard struct {
	mu    sync.Mutex
	f     *os.File
	size  int64
	index map[GoldenKey]goldenSegRef
}

// openGoldenDisk opens (creating if needed) the tier at dir, replaying
// each shard's segment into its index.
func openGoldenDisk(dir string) (*goldenDisk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("inject: golden cache dir: %w", err)
	}
	d := &goldenDisk{dir: dir}
	for i := range d.shards {
		if err := d.shards[i].open(filepath.Join(dir, fmt.Sprintf("golden-%02x.log", i))); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (s *goldenDiskShard) open(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("inject: open golden segment: %w", err)
	}
	s.f = f
	s.index = make(map[GoldenKey]goldenSegRef)

	le := binary.LittleEndian
	var frame [goldenFrameSize]byte
	var off int64
	for {
		if _, err := f.ReadAt(frame[:], off); err != nil {
			break // EOF or torn frame
		}
		key := GoldenKey{
			Program: le.Uint64(frame[0:8]),
			Config:  le.Uint64(frame[8:16]),
		}
		n := le.Uint32(frame[16:20])
		crc := le.Uint32(frame[20:24])
		if n > maxGoldenValue {
			break
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+goldenFrameSize); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		s.index[key] = goldenSegRef{off: off + goldenFrameSize, n: int32(n)} // last record wins
		off += goldenFrameSize + int64(n)
	}
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("inject: truncate golden segment tail: %w", err)
	}
	s.size = off
	return nil
}

func (d *goldenDisk) shardFor(k GoldenKey) *goldenDiskShard {
	return &d.shards[(k.Program^k.Config)%goldenShards]
}

// get reads one encoded bundle. An unreadable segment is a miss, never
// an error — the caller recomputes.
func (d *goldenDisk) get(k GoldenKey) ([]byte, bool) {
	s := d.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.index[k]
	if !ok {
		return nil, false
	}
	val := make([]byte, ref.n)
	if _, err := s.f.ReadAt(val, ref.off); err != nil {
		return nil, false
	}
	return val, true
}

// drop forgets a key whose record failed to decode (a bundle from an
// older codec version), so the recomputed bundle's put appends a
// record that supersedes it, now and at the next open.
func (d *goldenDisk) drop(k GoldenKey) {
	s := d.shardFor(k)
	s.mu.Lock()
	delete(s.index, k)
	s.mu.Unlock()
}

// put appends one encoded bundle; the first write for a key wins.
func (d *goldenDisk) put(k GoldenKey, val []byte, ob *obs.Observer) {
	if len(val) > maxGoldenValue {
		return
	}
	s := d.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[k]; ok {
		return
	}
	buf := make([]byte, goldenFrameSize+len(val))
	le := binary.LittleEndian
	le.PutUint64(buf[0:8], k.Program)
	le.PutUint64(buf[8:16], k.Config)
	le.PutUint32(buf[16:20], uint32(len(val)))
	le.PutUint32(buf[20:24], crc32.ChecksumIEEE(val))
	copy(buf[goldenFrameSize:], val)
	if _, err := s.f.WriteAt(buf, s.size); err != nil {
		// Persisting is best-effort; the in-process tier still serves
		// this process.
		ob.Counter("inject.golden.cache.write_errors").Inc()
		return
	}
	s.index[k] = goldenSegRef{off: s.size + goldenFrameSize, n: int32(len(val))}
	s.size += int64(len(buf))
	ob.Counter("inject.golden.cache.puts").Inc()
}

func (d *goldenDisk) close() error {
	var first error
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		if s.f != nil {
			if err := s.f.Sync(); err != nil && first == nil {
				first = err
			}
			if err := s.f.Close(); err != nil && first == nil {
				first = err
			}
			s.f = nil
		}
		s.mu.Unlock()
	}
	return first
}
