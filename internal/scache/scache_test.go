package scache

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lumos/internal/obs"
)

// ctx is the untraced caller context most tests read and write under.
var ctx = context.Background()

// get reads the raw payload stored under key through GetInto.
func get(ctx context.Context, c *Cache, key string) ([]byte, bool) {
	var raw json.RawMessage
	ok := c.GetInto(ctx, key, &raw)
	return raw, ok
}

func TestRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"iteration":1234,"name":"baseline"}`)
	if err := c.Put(ctx, "profile|scenario|v1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := get(ctx, c, "profile|scenario|v1")
	if !ok {
		t.Fatal("expected hit after Put")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: got %s want %s", got, payload)
	}
	if _, ok := get(ctx, c, "profile|other|v1"); ok {
		t.Fatal("unexpected hit for absent key")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Entries != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	if s.Bytes <= 0 {
		t.Fatalf("expected positive byte occupancy, got %d", s.Bytes)
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "k", []byte(`"v"`)); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := get(ctx, c2, "k")
	if !ok || string(got) != `"v"` {
		t.Fatalf("reopened cache: ok=%v payload=%s", ok, got)
	}
	if s := c2.Stats(); s.Entries != 1 {
		t.Fatalf("reopened cache should index existing entry: %+v", s)
	}
}

// entryFile locates the on-disk file backing a key.
func entryFile(t *testing.T, c *Cache, key string) string {
	t.Helper()
	a := addr(key)
	p := c.path(a)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry file for %q: %v", key, err)
	}
	return p
}

func TestCorruptEntryDiscarded(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p string) error
	}{
		{"truncated", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)/2], 0o644)
		}},
		{"garbage", func(p string) error {
			return os.WriteFile(p, []byte("not json at all"), 0o644)
		}},
		{"bit-flip", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			// Flip a byte inside the payload region without breaking the
			// JSON framing: payloads here are digit runs, so swap a digit.
			for i := range data {
				if data[i] == '7' {
					data[i] = '9'
					break
				}
			}
			return os.WriteFile(p, data, 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(ctx, "key", []byte(`777`)); err != nil {
				t.Fatal(err)
			}
			p := entryFile(t, c, "key")
			if err := tc.corrupt(p); err != nil {
				t.Fatal(err)
			}
			if _, ok := get(ctx, c, "key"); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not removed: %v", err)
			}
			s := c.Stats()
			if s.Discards != 1 || s.Misses != 1 {
				t.Fatalf("expected 1 discard + 1 miss, got %+v", s)
			}
			// The cache keeps working after a discard.
			if err := c.Put(ctx, "key", []byte(`777`)); err != nil {
				t.Fatal(err)
			}
			if _, ok := get(ctx, c, "key"); !ok {
				t.Fatal("re-put after discard should hit")
			}
		})
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "key", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	p := entryFile(t, c, "key")

	// Rewrite the entry as a future envelope version: valid JSON, valid
	// checksum, wrong version. It must be rejected, not crashed on.
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env["version"] = FormatVersion + 1
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(ctx, c, "key"); ok {
		t.Fatal("future-version entry served as a hit")
	}
	if s := c.Stats(); s.Discards != 1 {
		t.Fatalf("expected version-mismatch discard, got %+v", s)
	}

	// Foreign format tag likewise.
	if err := c.Put(ctx, "key2", []byte(`2`)); err != nil {
		t.Fatal(err)
	}
	p2 := entryFile(t, c, "key2")
	data, err = os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env["format"] = "someone-elses-cache"
	out, err = json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(ctx, c, "key2"); ok {
		t.Fatal("foreign-format entry served as a hit")
	}
}

func TestEvictionUnderCap(t *testing.T) {
	// Each entry is ~300 bytes of envelope; cap at ~3 entries.
	c, err := Open(t.TempDir(), 900)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Put(ctx, fmt.Sprintf("key-%d", i), []byte(`"0123456789abcdef"`)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("expected evictions under a %d-byte cap, got %+v", 900, s)
	}
	if s.Bytes > 900 {
		t.Fatalf("occupancy %d exceeds cap: %+v", s.Bytes, s)
	}
	// The most recent entry survives.
	if _, ok := get(ctx, c, "key-9"); !ok {
		t.Fatal("most recent entry was evicted")
	}
	// The oldest is gone.
	if _, ok := get(ctx, c, "key-0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
}

func TestEvictionIsLRU(t *testing.T) {
	c, err := Open(t.TempDir(), 700)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(ctx, fmt.Sprintf("key-%d", i), []byte(`"payload"`)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key-0 so key-1 becomes the LRU victim.
	if _, ok := get(ctx, c, "key-0"); !ok {
		t.Fatal("key-0 should be present")
	}
	for i := 3; i < 6; i++ {
		if err := c.Put(ctx, fmt.Sprintf("key-%d", i), []byte(`"payload"`)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := get(ctx, c, "key-1"); ok {
		t.Fatal("LRU entry key-1 should have been evicted before touched key-0")
	}
}

func TestOversizedEntrySurvivesOwnPut(t *testing.T) {
	c, err := Open(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	big := []byte(`"` + string(make([]byte, 0, 0)) + fmt.Sprintf("%0512d", 1) + `"`)
	if err := c.Put(ctx, "big", big); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(ctx, c, "big"); !ok {
		t.Fatal("oversized entry should survive its own Put")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i%10)
				payload := []byte(fmt.Sprintf(`{"v":%d}`, i%10))
				if err := c.Put(ctx, key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := get(ctx, c, key); ok {
					if string(got) != string(payload) {
						t.Errorf("payload mismatch under concurrency: %s vs %s", got, payload)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries != 10 {
		t.Fatalf("expected 10 distinct entries, got %+v", s)
	}
	if s.Discards != 0 {
		t.Fatalf("no entry should be discarded under clean concurrent use: %+v", s)
	}
}

func TestStrayTempFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	// A crashed writer leaves a temp file behind; reopening must not index it.
	fan := filepath.Dir(entryFile(t, c, "k"))
	if err := os.WriteFile(filepath.Join(fan, "put-crashed.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.Entries != 1 {
		t.Fatalf("stray temp file was indexed: %+v", s)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", 0); err == nil {
		t.Fatal("Open with empty dir should fail")
	}
}

func TestGetIntoRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Name      string `json:"name"`
		Iteration int64  `json:"iteration"`
	}
	payload, _ := json.Marshal(rec{Name: "baseline", Iteration: 1234})
	if err := c.Put(ctx, "k", payload); err != nil {
		t.Fatal(err)
	}
	var got rec
	if !c.GetInto(ctx, "k", &got) {
		t.Fatal("expected hit after Put")
	}
	if got.Name != "baseline" || got.Iteration != 1234 {
		t.Fatalf("decoded mismatch: %+v", got)
	}
	if c.GetInto(ctx, "absent", &got) {
		t.Fatal("unexpected hit for absent key")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

func TestGetIntoMatchesGet(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"a":[1,2,3],"b":"x"}`)
	if err := c.Put(ctx, "k", payload); err != nil {
		t.Fatal(err)
	}
	var put, viaInto map[string]any
	if err := json.Unmarshal(payload, &put); err != nil {
		t.Fatal(err)
	}
	if !c.GetInto(ctx, "k", &viaInto) {
		t.Fatal("GetInto miss")
	}
	if fmt.Sprint(put) != fmt.Sprint(viaInto) {
		t.Fatalf("GetInto decoded %v, Put stored %v", viaInto, put)
	}
}

func TestGetIntoUndecodablePayloadDiscarded(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A payload that is valid JSON (so Put and the envelope checksum accept
	// it) but does not decode into the caller's type.
	if err := c.Put(ctx, "k", []byte(`"not-an-object"`)); err != nil {
		t.Fatal(err)
	}
	var v struct{ A int }
	if c.GetInto(ctx, "k", &v) {
		t.Fatal("expected type-mismatched payload to miss")
	}
	s := c.Stats()
	if s.Discards != 1 || s.Misses != 1 {
		t.Fatalf("expected discard+miss, got %+v", s)
	}
	if _, err := os.Stat(c.path(addr("k"))); err == nil {
		t.Fatal("entry file should have been removed")
	}
}

// TestEventsOnContextTracer checks that every cache outcome is an instant
// event on the tracer of the call's context, and only there: an untraced
// call records nothing on a tracer another caller passed earlier.
func TestEventsOnContextTracer(t *testing.T) {
	c, err := Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	traced := obs.ContextWithTracer(context.Background(), tr)
	if err := c.Put(traced, "a", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(traced, c, "a"); !ok {
		t.Fatal("expected hit")
	}
	var v int
	if c.GetInto(traced, "absent", &v) {
		t.Fatal("unexpected hit")
	}
	// Over the 1-byte cap, the second put evicts the first entry.
	if err := c.Put(traced, "b", []byte(`2`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(ctx, c, "b"); !ok {
		t.Fatal("expected hit")
	}
	var names []string
	for _, ev := range tr.Events() {
		if ev.Cat != "scache" {
			t.Fatalf("event %q on category %q, want scache", ev.Name, ev.Cat)
		}
		names = append(names, ev.Name)
	}
	want := []string{"put", "hit", "miss", "put", "evict"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", names, want)
	}
}
