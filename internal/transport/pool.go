package transport

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// payloadPools recycle message buffers across the send and receive paths,
// one pool per capacity class ⌊log2 cap⌋, so a frame reuses a buffer near its
// own size: a client's raw-size frame buffer does not end up holding a small
// compressed frame on the server. Buffers above maxPooledPayload (class 22)
// are never pooled so one oversized frame does not pin memory.
var payloadPools [23]sync.Pool

// holders box the buffers the payload pools store: a pool holds a *[]byte,
// and the box goes back here when its buffer leaves, so neither GetPayload
// nor Recycle allocates once the pools are warm.
var holders = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledPayload = 4 << 20

func poolClass(c int) int { return bits.Len(uint(c)) - 1 }

// Pool telemetry (PoolStats). All counters are monotonic; consumers diff
// snapshots. Outstanding() is the balance the stress tests drive to zero.
var (
	poolGets     atomic.Int64 // buffers the transport took custody of (take)
	poolMakes    atomic.Int64 // GetPayload calls that allocated fresh
	poolPuts     atomic.Int64 // buffers returned to the pool by Recycle
	poolDrops    atomic.Int64 // Recycle calls on unpoolable (empty or oversized) buffers
	poolRetains  atomic.Int64 // references added via Ref (initial + Retain)
	poolReleases atomic.Int64 // references dropped via Ref.Release
)

// PoolStats is a snapshot of the payload-pool counters: how many buffers the
// transport took custody of (a Send, or a TCP frame read) — whoever
// allocated them — how many the pool's getter allocated fresh, how many came
// back, and the reference traffic of the refcounted payload path.
type PoolStats struct {
	Gets, Makes, Puts, Drops int64
	Retains, Releases        int64
}

// Outstanding returns the number of live payload buffers: taken into
// custody but neither recycled nor dropped. A drained, shut-down system
// balances to the number deliberately retained forever (normally zero).
func (s PoolStats) Outstanding() int64 { return s.Gets - s.Puts - s.Drops }

// RefsActive returns the number of live payload references (Ref path only).
func (s PoolStats) RefsActive() int64 { return s.Retains - s.Releases }

// ReadPoolStats snapshots the global payload-pool counters.
func ReadPoolStats() PoolStats {
	return PoolStats{
		Gets:     poolGets.Load(),
		Makes:    poolMakes.Load(),
		Puts:     poolPuts.Load(),
		Drops:    poolDrops.Load(),
		Retains:  poolRetains.Load(),
		Releases: poolReleases.Load(),
	}
}

// Pool debugging: when enabled, the pool tracks the identity of every buffer
// in custody and panics on a Recycle of a buffer that is not currently live,
// or on a second hand-off of one that is — the double-recycle or double-Send
// that would otherwise surface as two goroutines scribbling over one
// "pooled" buffer far from the culprit.
// Debug mode takes a mutex per take/recycle; tests only. The disabled path
// costs one atomic load, never the lock.
var (
	debugOn   atomic.Bool
	debugMu   sync.Mutex
	debugLive map[*byte]bool // live state per buffer identity; nil = disabled
)

// SetPoolDebug toggles double-recycle and double-hand-off detection. Enabling starts tracking
// from an empty state (buffers taken earlier are unknown and tolerated);
// disabling drops all tracking state.
func SetPoolDebug(enabled bool) {
	debugMu.Lock()
	defer debugMu.Unlock()
	if enabled {
		debugLive = make(map[*byte]bool)
	} else {
		debugLive = nil
	}
	debugOn.Store(enabled)
}

// bufID returns the identity of a buffer: the address of its backing array.
func bufID(b []byte) *byte {
	if cap(b) == 0 {
		return nil
	}
	return unsafe.SliceData(b[:cap(b)])
}

// debugTrack moves b's tracked state to live (taken into custody) or not
// live (recycled), panicking when b already is in that state.
func debugTrack(b []byte, live bool) {
	if !debugOn.Load() {
		return
	}
	debugMu.Lock()
	defer debugMu.Unlock()
	id := bufID(b)
	if debugLive == nil || id == nil {
		return
	}
	if was, known := debugLive[id]; known && was == live {
		panic(fmt.Sprintf("transport: payload buffer %p (%d bytes) recycled or handed off twice", id, cap(b)))
	}
	debugLive[id] = live
}

// GetPayload returns a buffer of length n, reusing pooled storage when a
// large-enough buffer is available. The buffer is the caller's until it
// hands it to Send (an encoder writes its frame straight into it) or
// Recycle.
func GetPayload(n int) []byte {
	if n > 0 && n <= maxPooledPayload {
		if v := payloadPools[poolClass(n)].Get(); v != nil {
			h := v.(*[]byte)
			b := *h
			*h = nil
			holders.Put(h)
			if cap(b) >= n {
				return b[:n]
			}
		}
	}
	poolMakes.Add(1)
	return make([]byte, n)
}

// take records that the transport has taken custody of b — in Send or a
// TCP frame read — whether or not the pool made it; Recycle ends custody.
func take(b []byte) []byte {
	debugTrack(b, true)
	poolGets.Add(1)
	return b
}

// Recycle returns a payload buffer to the transport pool. It is optional:
// a consumer that holds references into the payload must simply not call
// it, and unrecycled buffers are reclaimed by the garbage collector. After
// Recycle the caller must not touch the slice again. Consumers that need
// one payload to outlive several concurrent readers use Ref instead of
// recycling directly. Recycle only what the transport delivered or took: a
// GetPayload buffer that never reached Send is dropped, not recycled.
func Recycle(payload []byte) {
	if payload == nil {
		return
	}
	debugTrack(payload, false)
	if c := cap(payload); c == 0 || c > maxPooledPayload {
		poolDrops.Add(1)
		return
	}
	poolPuts.Add(1)
	h := holders.Get().(*[]byte)
	*h = payload[:0]
	payloadPools[poolClass(cap(payload))].Put(h)
}

// Ref is a refcounted handle on one received payload buffer, letting a
// single retained payload back work items on several concurrent consumers
// (the server's shard workers each decode their own cell sub-range straight
// out of the shared bytes). The final Release recycles the buffer into the
// pool. Ref is designed for embedding in a consumer-side message struct so
// the whole unit is pooled together; the zero value is ready for Init.
type Ref struct {
	payload []byte
	refs    atomic.Int32
}

// Init arms the handle with payload and n initial references.
func (r *Ref) Init(payload []byte, n int32) {
	r.payload = payload
	r.refs.Store(n)
	poolRetains.Add(int64(n))
}

// Payload returns the referenced buffer. Callers must hold a reference.
func (r *Ref) Payload() []byte { return r.payload }

// Retain adds n references. The caller must already hold one (retaining a
// released payload is a use-after-free).
func (r *Ref) Retain(n int32) {
	if r.refs.Add(n) <= n {
		panic("transport: Ref.Retain on a released payload")
	}
	poolRetains.Add(int64(n))
}

// Release drops one reference and reports whether it was the last; the final
// release recycles the payload. Releasing below zero panics — it means two
// consumers both believed they held the final reference.
func (r *Ref) Release() bool {
	poolReleases.Add(1)
	left := r.refs.Add(-1)
	if left > 0 {
		return false
	}
	if left < 0 {
		panic("transport: Ref.Release without a matching reference")
	}
	Recycle(r.payload)
	r.payload = nil
	return true
}
