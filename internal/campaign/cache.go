package campaign

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"unsafe"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/trace"
)

// Result is the science summary of one evaluated job — what the memory
// cache holds, the disk envelope stores and a pool hop carries. A
// simulated trace is a pure function of its spec, so it is re-run where
// it is read (Job.Trace) and the indicator report is derived on read.
// Results are shared between cache readers and must be treated as
// immutable.
type Result struct {
	// Hash is the content address of the job that produced the result.
	Hash string `json:"hash"`
	// Trace is set only by Execute, whose caller holds the only copy. It
	// is never encoded, so no cache entry or pool hop carries it.
	Trace *trace.EnsembleTrace `json:"-"`
	// Efficiencies holds E_i (Eq. 3) for the surviving members, in member
	// order. Without faults this is every member.
	Efficiencies []float64 `json:"efficiencies"`
	// Objective is F(P^{U,A,P}) over the survivors, the paper's headline score.
	Objective float64 `json:"objective"`
	// Makespan is the ensemble makespan in virtual seconds.
	Makespan float64 `json:"makespan"`
	// Dropped counts members removed by the drop-member policy, and
	// DroppedMembers lists their placement indices in ascending order.
	Dropped        int   `json:"dropped,omitempty"`
	DroppedMembers []int `json:"droppedMembers,omitempty"`
	// Ledger is the job's simulated core-seconds (accounting.FromTrace),
	// what every ledger charges for a submission of the hash.
	Ledger accounting.JobLedger `json:"ledger"`
}

// decodeResult parses a disk entry's or a peer's result payload. One
// without a ledger is the older generation, which carried the trace
// instead: it fails, and every caller treats that as a miss.
func decodeResult(b []byte) (*Result, error) {
	res := new(Result)
	probe := struct {
		*Result
		Ledger *accounting.JobLedger `json:"ledger"`
	}{Result: res}
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, err
	}
	if probe.Ledger == nil {
		return nil, errors.New("result carries no ledger (older generation)")
	}
	res.Ledger = *probe.Ledger
	return res, nil
}

// resultCache is a content-addressed cache: an in-memory LRU bounded by a
// byte budget, optionally backed by an on-disk store so results survive
// process restarts. It is not locked internally; the service serializes
// access under its own mutex.
type resultCache struct {
	budget  int64 // in-memory byte budget (<= 0 disables the memory tier)
	dir     string
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element
	bytes   int64

	// onCorrupt, if set, observes each disk entry evicted for failing its
	// integrity check. Called under the same lock as get/put (the
	// service's mutex), so it must not retake it.
	onCorrupt func(hash string, err error)
}

// diskEnvelope wraps each on-disk entry with a SHA-256 of its payload so
// bit rot, torn writes that survived rename, or hand-edited files are
// detected on read instead of silently poisoning campaign results. An
// entry that fails verification is evicted and treated as a miss — the
// job simply re-executes.
type diskEnvelope struct {
	Sum    string          `json:"sha256"`
	Result json.RawMessage `json:"result"`
}

// encodeDiskEntry wraps a result in its checksummed envelope.
func encodeDiskEntry(res *Result) ([]byte, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding result: %w", err)
	}
	sum := sha256.Sum256(b)
	env, err := json.Marshal(diskEnvelope{Sum: hex.EncodeToString(sum[:]), Result: b})
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding cache entry: %w", err)
	}
	return env, nil
}

// decodeDiskEntry verifies and unwraps one on-disk entry. Entries from
// before the envelope format, with a missing checksum, or of the older
// generation fail verification and re-execute once.
func decodeDiskEntry(b []byte) (*Result, error) {
	var env diskEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("undecodable envelope: %w", err)
	}
	if env.Sum == "" || len(env.Result) == 0 {
		return nil, errors.New("missing checksum envelope")
	}
	sum := sha256.Sum256(env.Result)
	if got := hex.EncodeToString(sum[:]); got != env.Sum {
		return nil, fmt.Errorf("checksum mismatch: entry says %s, payload is %s", env.Sum, got)
	}
	res, err := decodeResult(env.Result)
	if err != nil {
		return nil, fmt.Errorf("undecodable payload: %w", err)
	}
	return res, nil
}

type cacheEntry struct {
	hash string
	res  *Result
}

// newResultCache builds the cache, creating the disk directory on demand.
func newResultCache(budget int64, dir string) (*resultCache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: cache dir: %w", err)
		}
	}
	return &resultCache{
		budget:  budget,
		dir:     dir,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}, nil
}

// get returns the cached result for hash. The second return distinguishes
// a memory hit from a disk hit (false when served from the memory tier or
// not found at all).
func (c *resultCache) get(hash string) (*Result, bool, error) {
	if c == nil {
		return nil, false, nil
	}
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).res, false, nil
	}
	if c.dir == "" {
		return nil, false, nil
	}
	b, err := os.ReadFile(c.path(hash))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("campaign: cache read: %w", err)
	}
	res, err := decodeDiskEntry(b)
	if err != nil {
		// Integrity failure: evict and miss rather than serve (or error
		// on) a corrupt result — a re-execution is always correct.
		_ = os.Remove(c.path(hash))
		if c.onCorrupt != nil {
			c.onCorrupt(hash, err)
		}
		return nil, false, nil
	}
	c.admit(hash, res)
	return res, true, nil
}

// put stores a result under its hash in both tiers. The memory tier is
// budgeted on the entry's heap (estimateResultSize); only the disk tier
// marshals.
func (c *resultCache) put(hash string, res *Result) error {
	if c == nil {
		return nil
	}
	if c.dir != "" {
		env, err := encodeDiskEntry(res)
		if err != nil {
			return err
		}
		// Write-then-rename so a crashed writer never leaves a torn entry
		// that a later get would reject as corrupt.
		tmp := c.path(hash) + ".tmp"
		if err := os.WriteFile(tmp, env, 0o644); err != nil {
			return fmt.Errorf("campaign: cache write: %w", err)
		}
		if err := os.Rename(tmp, c.path(hash)); err != nil {
			return fmt.Errorf("campaign: cache write: %w", err)
		}
	}
	c.admit(hash, res)
	return nil
}

// estimateResultSize is the heap one memory-tier entry holds: the
// Result, its cacheEntry and list element, its index slot, the hash and
// the slices' backing arrays. The budget therefore bounds real heap.
func estimateResultSize(res *Result) int64 {
	const mapSlot = 40 // one string → pointer map entry, load factor included
	fixed := unsafe.Sizeof(Result{}) + unsafe.Sizeof(cacheEntry{}) + unsafe.Sizeof(list.Element{}) + mapSlot
	return int64(fixed) + int64(len(res.Hash)+8*cap(res.Efficiencies)+8*cap(res.DroppedMembers))
}

// admit inserts into the memory tier and evicts LRU entries past budget.
func (c *resultCache) admit(hash string, res *Result) {
	if c.budget <= 0 {
		return
	}
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&cacheEntry{hash: hash, res: res})
	c.entries[hash] = el
	c.bytes += estimateResultSize(res)
	for c.bytes > c.budget && c.order.Len() > 1 {
		oldest := c.order.Back()
		e := oldest.Value.(*cacheEntry)
		c.order.Remove(oldest)
		delete(c.entries, e.hash)
		c.bytes -= estimateResultSize(e.res)
	}
}

// stats reports the memory tier's occupancy.
func (c *resultCache) stats() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	return c.order.Len(), c.bytes
}

func (c *resultCache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}
