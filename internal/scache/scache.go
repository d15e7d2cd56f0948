// Package scache is a disk-backed, content-addressed scenario cache: the
// persistence layer under the sweep engine's in-memory memo. Entries are
// addressed by the SHA-256 of their full cache key (the caller composes
// profile fingerprint ‖ scenario fingerprint ‖ schema version into that
// key), so identical plan queries warm-start across processes, users and
// deploys while any change to the inputs — or to the cache schema — simply
// misses.
//
// The cache is built to survive hostile disk states rather than trust
// them: writes are atomic (temp file + rename in the same directory),
// every entry carries a format tag, schema version, its full key and a
// payload checksum, and GetInto treats any mismatch — truncation, bit rot,
// foreign files, stale schema — as a miss that discards the entry instead
// of an error that sinks the campaign. A size cap evicts the
// least-recently-used entries on insert. All counters (hits, misses, puts,
// evictions, discards) are exposed via Stats for service-level reporting,
// and each outcome is an instant event on the tracer the caller's context
// carries (obs.ContextWithTracer).
package scache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"lumos/internal/obs"
)

// FormatTag identifies cache entry files; entries carrying any other tag
// are foreign and discarded on read.
const FormatTag = "lumos-scache"

// FormatVersion is the on-disk envelope schema. Bump it when the envelope
// layout changes; entries written under another version are rejected (not
// crashed on) and discarded, so upgrades can never serve stale
// cross-process hits at the envelope level. Callers additionally embed
// their own model/cache schema version in the key itself.
const FormatVersion = 1

// DefaultCap is the default eviction size cap (total payload + envelope
// bytes) when Open is given cap <= 0.
const DefaultCap = 512 << 20

// Stats is a point-in-time snapshot of cache activity and occupancy.
type Stats struct {
	// Hits and Misses count GetInto outcomes; a discarded (corrupt, foreign or
	// stale-schema) entry counts as both a miss and a discard.
	Hits, Misses int64
	// Puts counts successful inserts.
	Puts int64
	// Evictions counts entries removed to honor the size cap.
	Evictions int64
	// Discards counts corrupt, foreign or version-mismatched entries
	// detected and removed.
	Discards int64
	// Entries and Bytes describe current occupancy; Cap is the configured
	// eviction threshold.
	Entries, Bytes, Cap int64
}

// envelope is the on-disk entry format.
type envelope struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Key is the full (unhashed) cache key, stored so a read can verify
	// the entry answers the question being asked (hash collisions, foreign
	// files renamed into place).
	Key string `json:"key"`
	// Checksum is the SHA-256 of Payload.
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// entryInfo is the in-memory index record for one on-disk entry.
type entryInfo struct {
	size int64
	seq  int64 // last-access sequence for LRU eviction
}

// Cache is a disk-backed content-addressed store. It is safe for
// concurrent use within a process; cross-process sharing is safe for
// correctness (atomic renames, per-entry validation) though occupancy
// accounting is per-process.
type Cache struct {
	dir string
	cap int64

	mu      sync.Mutex
	closed  bool
	index   map[string]entryInfo // addr → info
	bytes   int64
	seq     int64
	hits    int64
	misses  int64
	puts    int64
	evicts  int64
	discard int64
}

// Open creates (or reopens) a cache rooted at dir. Existing entries are
// indexed by file order so a reopened cache evicts oldest-first until
// entries are touched. capBytes <= 0 selects DefaultCap.
func Open(dir string, capBytes int64) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("scache: empty cache directory")
	}
	if capBytes <= 0 {
		capBytes = DefaultCap
	}
	objects := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objects, 0o755); err != nil {
		return nil, fmt.Errorf("scache: %w", err)
	}
	c := &Cache{dir: dir, cap: capBytes, index: map[string]entryInfo{}}
	if err := c.scan(); err != nil {
		return nil, err
	}
	return c, nil
}

// Dir returns the cache root directory.
func (c *Cache) Dir() string { return c.dir }

// event emits one instant event — hit, miss, put, evict or corrupt — on
// tr's "scache" category; a nil tr (an untraced caller) costs one pointer
// check. The entry is named by its truncated content address (full keys
// are long and embed fingerprints; eight hex digits identify the entry in
// a trace).
func event(tr *obs.Tracer, name, a string, bytes int64) {
	if tr == nil {
		return
	}
	args := map[string]any{"addr": shortAddr(a)}
	if bytes > 0 {
		args["bytes"] = bytes
	}
	tr.Instant("scache", name, args)
}

func shortAddr(a string) string {
	if len(a) > 8 {
		return a[:8]
	}
	return a
}

// Close marks the cache closed: subsequent Gets miss and Puts fail, so a
// draining process stops producing new entry files at a defined point.
// Writes are individually atomic, so there is nothing to flush; Close exists
// to give shutdown a clean ordering (drain requests, then close the cache).
func (c *Cache) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// scan seeds the index from existing entry files, ordered by modification
// time so the LRU sequence approximates on-disk age across restarts.
func (c *Cache) scan() error {
	type found struct {
		addr  string
		size  int64
		mtime int64
	}
	var entries []found
	fans, err := os.ReadDir(filepath.Join(c.dir, "objects"))
	if err != nil {
		return fmt.Errorf("scache: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(c.dir, "objects", fan.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if filepath.Ext(name) != ".json" {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			entries = append(entries, found{
				addr:  name[:len(name)-len(".json")],
				size:  info.Size(),
				mtime: info.ModTime().UnixNano(),
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].mtime != entries[j].mtime {
			return entries[i].mtime < entries[j].mtime
		}
		return entries[i].addr < entries[j].addr
	})
	for _, e := range entries {
		c.seq++
		c.index[e.addr] = entryInfo{size: e.size, seq: c.seq}
		c.bytes += e.size
	}
	return nil
}

// addr returns the content address (SHA-256 hex) of a key.
func addr(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// path returns the entry file path for an address, fanned out on the first
// two hex digits to keep directories small.
func (c *Cache) path(a string) string {
	return filepath.Join(c.dir, "objects", a[:2], a+".json")
}

// bufPool recycles warm-path file read buffers: a steady stream of Gets
// against a populated cache then performs no per-read buffer allocation.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// rawRef is a json.RawMessage that aliases the decoder's input instead of
// copying it. Valid only while the backing read buffer is live — every use
// below finishes with the payload before the buffer returns to bufPool.
type rawRef []byte

func (r *rawRef) UnmarshalJSON(b []byte) error { *r = b; return nil }

// envelopeRef mirrors envelope for reads, with the payload aliasing the
// read buffer rather than copied out of it.
type envelopeRef struct {
	Format   string `json:"format"`
	Version  int    `json:"version"`
	Key      string `json:"key"`
	Checksum string `json:"checksum"`
	Payload  rawRef `json:"payload"`
}

// readEntry reads the entry file at p into a pooled buffer. The caller
// must return bp to bufPool when done with buf.
func readEntry(p string) (bp *[]byte, buf []byte, err error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	bp = bufPool.Get().(*[]byte)
	n := int(st.Size())
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	buf = (*bp)[:n]
	if _, err := io.ReadFull(f, buf); err != nil {
		bufPool.Put(bp)
		return nil, nil, err
	}
	return bp, buf, nil
}

// loadEntry reads and validates the entry under key without touching the
// index. It returns the pooled buffer holding the (aliased) payload; on
// ok=false the entry has been discarded or missed and counted, and no
// buffer is returned. File IO, decoding and checksumming all run outside
// the cache mutex, so concurrent warm readers do not serialize.
func (c *Cache) loadEntry(tr *obs.Tracer, key string) (bp *[]byte, env envelopeRef, size int64, ok bool) {
	a := addr(key)
	c.mu.Lock()
	if c.closed {
		c.misses++
		c.mu.Unlock()
		return nil, envelopeRef{}, 0, false
	}
	c.mu.Unlock()
	p := c.path(a)
	bp, buf, err := readEntry(p)
	if err != nil {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		event(tr, "miss", a, 0)
		return nil, envelopeRef{}, 0, false
	}
	invalid := json.Unmarshal(buf, &env) != nil ||
		env.Format != FormatTag || env.Version != FormatVersion || env.Key != key
	if !invalid {
		sum := sha256.Sum256(env.Payload)
		invalid = hex.EncodeToString(sum[:]) != env.Checksum
	}
	if invalid {
		bufPool.Put(bp)
		c.mu.Lock()
		c.discardLocked(tr, a, p)
		c.misses++
		c.mu.Unlock()
		return nil, envelopeRef{}, 0, false
	}
	return bp, env, int64(len(buf)), true
}

// touch books a hit: bumps the LRU sequence and repairs the index if
// another process wrote the entry.
func (c *Cache) touch(tr *obs.Tracer, key string, size int64) {
	a := addr(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	info, ok := c.index[a]
	if !ok {
		c.bytes += size
		info = entryInfo{size: size}
	}
	info.seq = c.seq
	c.index[a] = info
	c.hits++
	event(tr, "hit", a, size)
}

// GetInto decodes the payload stored under key directly into v, reusing a
// pooled read buffer and decoding in place — the warm path performs no
// payload copy. Any invalid entry — unreadable, truncated, foreign format,
// stale envelope version, key or checksum mismatch — is discarded and
// reported as a miss. Entries that validate at the envelope level but fail
// to decode into v are foreign writers at our key: they are discarded and
// reported as a miss too. The outcome is an instant event on ctx's tracer.
func (c *Cache) GetInto(ctx context.Context, key string, v any) bool {
	tr := obs.TracerFrom(ctx)
	bp, env, size, ok := c.loadEntry(tr, key)
	if !ok {
		return false
	}
	err := json.Unmarshal(env.Payload, v)
	bufPool.Put(bp)
	if err != nil {
		c.mu.Lock()
		c.discardLocked(tr, addr(key), c.path(addr(key)))
		c.misses++
		c.mu.Unlock()
		return false
	}
	c.touch(tr, key, size)
	return true
}

// discardLocked removes a corrupt or stale entry file and its index record.
func (c *Cache) discardLocked(tr *obs.Tracer, a, p string) {
	if info, ok := c.index[a]; ok {
		c.bytes -= info.size
		delete(c.index, a)
	}
	os.Remove(p)
	c.discard++
	event(tr, "corrupt", a, 0)
}

// Put stores payload under key, atomically (temp file + rename) so readers
// never observe a partial entry, then evicts least-recently-used entries
// until the size cap holds. Storing under an existing key overwrites it.
// The put and any evictions are instant events on ctx's tracer.
func (c *Cache) Put(ctx context.Context, key string, payload []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("scache: cache closed")
	}
	c.mu.Unlock()
	a := addr(key)
	sum := sha256.Sum256(payload)
	env := envelope{
		Format:   FormatTag,
		Version:  FormatVersion,
		Key:      key,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  json.RawMessage(payload),
	}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("scache: encoding entry: %w", err)
	}

	p := c.path(a)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("scache: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("scache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("scache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("scache: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("scache: %w", err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if info, ok := c.index[a]; ok {
		c.bytes -= info.size
	}
	c.seq++
	c.index[a] = entryInfo{size: int64(len(data)), seq: c.seq}
	c.bytes += int64(len(data))
	c.puts++
	tr := obs.TracerFrom(ctx)
	event(tr, "put", a, int64(len(data)))
	c.evictLocked(tr, a)
	return nil
}

// evictLocked removes least-recently-used entries until bytes <= cap. The
// just-written entry (keep) survives even if it alone exceeds the cap, so
// a single oversized result still round-trips within its process.
func (c *Cache) evictLocked(tr *obs.Tracer, keep string) {
	for c.bytes > c.cap && len(c.index) > 1 {
		victim, oldest := "", int64(0)
		for a, info := range c.index {
			if a == keep {
				continue
			}
			if victim == "" || info.seq < oldest {
				victim, oldest = a, info.seq
			}
		}
		if victim == "" {
			return
		}
		info := c.index[victim]
		delete(c.index, victim)
		c.bytes -= info.size
		os.Remove(c.path(victim))
		c.evicts++
		event(tr, "evict", victim, info.size)
	}
}

// Stats returns a snapshot of the counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Puts:      c.puts,
		Evictions: c.evicts,
		Discards:  c.discard,
		Entries:   int64(len(c.index)),
		Bytes:     c.bytes,
		Cap:       c.cap,
	}
}
