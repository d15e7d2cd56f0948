package scache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fuzzKey is the key FuzzScacheEntry writes its entry file under.
const fuzzKey = "scenario|lumos-cache-v6|profile|key"

// fuzzResult is the payload type FuzzScacheEntry decodes into, shaped like
// a cached scenario result.
type fuzzResult struct {
	Name      string
	Kind      string
	Iteration int64
	Err       string
}

// FuzzScacheEntry writes the fuzzed bytes as the entry file of a fixed key
// and reads them back through GetInto, which must not panic. It may serve
// the entry only when the bytes are a well-formed envelope of that key
// whose checksum matches and whose payload decodes; every rejected entry
// must be gone from disk afterwards.
//
// The seed corpus in testdata/fuzz/FuzzScacheEntry holds a valid entry and
// a truncated copy of it, so plain go test replays both; make fuzz-smoke
// explores beyond them.
func FuzzScacheEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		p := c.path(addr(fuzzKey))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got fuzzResult
		hit := c.GetInto(ctx, fuzzKey, &got)

		var env envelope
		var want fuzzResult
		valid := json.Unmarshal(data, &env) == nil &&
			env.Format == FormatTag && env.Version == FormatVersion && env.Key == fuzzKey
		if valid {
			sum := sha256.Sum256(env.Payload)
			valid = hex.EncodeToString(sum[:]) == env.Checksum && json.Unmarshal(env.Payload, &want) == nil
		}
		switch {
		case hit && !valid:
			t.Fatalf("served a malformed entry as %+v", got)
		case !hit && valid:
			t.Fatal("rejected a well-formed entry")
		case hit && got != want:
			t.Fatalf("served %+v, the payload holds %+v", got, want)
		case !hit:
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("rejected entry left on disk (stat: %v)", err)
			}
		}
	})
}
