package traffic

import (
	"sync"
	"testing"
	"time"
)

func TestGateDefaultsAndLimits(t *testing.T) {
	g := NewGate(GateConfig{Limit: 8})
	if g.Limit() != 8 {
		t.Fatalf("Limit() = %d, want 8", g.Limit())
	}
	if g.BulkLimit() != 6 { // 0.75 × 8
		t.Fatalf("BulkLimit() = %d, want 6", g.BulkLimit())
	}
	// BulkShare 1 still reserves one priority permit when Limit >= 2.
	g = NewGate(GateConfig{Limit: 4, BulkShare: 1})
	if g.BulkLimit() != 3 {
		t.Fatalf("BulkLimit() with share 1 = %d, want 3", g.BulkLimit())
	}
	// A single permit is necessarily shared.
	g = NewGate(GateConfig{Limit: 1})
	if g.BulkLimit() != 1 {
		t.Fatalf("BulkLimit() with limit 1 = %d, want 1", g.BulkLimit())
	}
	// Zero config resolves to GOMAXPROCS.
	if NewGate(GateConfig{}).Limit() < 1 {
		t.Fatal("zero-config gate has no permits")
	}
}

// TestGatePriorityReserve pins the starvation guarantee: with bulk at
// its cap, priority work is still admitted up to the total limit, and
// bulk stays rejected until a bulk permit frees.
func TestGatePriorityReserve(t *testing.T) {
	g := NewGate(GateConfig{Limit: 4, BulkShare: 0.5})
	if g.BulkLimit() != 2 {
		t.Fatalf("BulkLimit() = %d, want 2", g.BulkLimit())
	}
	for i := 0; i < 2; i++ {
		if !g.TryAcquire(Bulk) {
			t.Fatalf("bulk acquire %d refused below cap", i)
		}
	}
	if g.TryAcquire(Bulk) {
		t.Fatal("bulk admitted above its cap")
	}
	for i := 0; i < 2; i++ {
		if !g.TryAcquire(Priority) {
			t.Fatalf("priority acquire %d refused with reserve free", i)
		}
	}
	if g.TryAcquire(Priority) {
		t.Fatal("priority admitted above the total limit")
	}
	snap := g.Snapshot()
	if snap.InFlight != 4 || snap.BulkInFlight != 2 {
		t.Fatalf("snapshot occupancy = %d/%d, want 4/2", snap.InFlight, snap.BulkInFlight)
	}
	if snap.BulkRejected != 1 || snap.PriorityRejected != 1 {
		t.Fatalf("snapshot rejections = %d bulk, %d priority, want 1 and 1", snap.BulkRejected, snap.PriorityRejected)
	}
	if got := g.Rejected(); got != 2 {
		t.Fatalf("Rejected() = %d, want 2", got)
	}
	g.Release(Bulk)
	if !g.TryAcquire(Bulk) {
		t.Fatal("bulk refused after a bulk release")
	}
}

// TestGateShedsBulkUnderLoad: the load hook sheds bulk but never
// priority, and sheds are counted separately.
func TestGateShedsBulkUnderLoad(t *testing.T) {
	load := 1.0
	g := NewGate(GateConfig{Limit: 4, ShedLoad: 0.9, Load: func() float64 { return load }})
	if g.TryAcquire(Bulk) {
		t.Fatal("bulk admitted at full load")
	}
	if !g.TryAcquire(Priority) {
		t.Fatal("priority shed — only bulk may be")
	}
	g.Release(Priority)
	if s := g.Snapshot(); s.Shed != 1 || s.BulkRejected != 1 {
		t.Fatalf("shed/bulkRejected = %d/%d, want 1/1", s.Shed, s.BulkRejected)
	}
	load = 0.1
	if !g.TryAcquire(Bulk) {
		t.Fatal("bulk refused at low load")
	}
	g.Release(Bulk)
}

// TestGateConcurrent hammers the gate from both classes under -race and
// checks the invariants: occupancy never exceeds the limits and the
// books balance at the end.
func TestGateConcurrent(t *testing.T) {
	g := NewGate(GateConfig{Limit: 6, BulkShare: 0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		class := Bulk
		if w%2 == 1 {
			class = Priority
		}
		wg.Add(1)
		go func(c Class) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if g.TryAcquire(c) {
					if n := g.InFlight(); n > g.Limit() {
						t.Errorf("inflight %d exceeds limit %d", n, g.Limit())
					}
					g.Release(c)
				}
			}
		}(class)
	}
	wg.Wait()
	if s := g.Snapshot(); s.InFlight != 0 || s.BulkInFlight != 0 {
		t.Fatalf("occupancy after drain = %d/%d, want 0/0", s.InFlight, s.BulkInFlight)
	}
}

// TestLimiterRefill drives a bucket with a fake clock through burst
// exhaustion, a computed Retry-After, refill, and recovery.
func TestLimiterRefill(t *testing.T) {
	clock := time.Unix(1000, 0)
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 2, Now: func() time.Time { return clock }})
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("c"); !ok {
			t.Fatalf("request %d refused inside burst", i)
		}
	}
	ok, retry := l.Allow("c")
	if ok {
		t.Fatal("request admitted with an empty bucket")
	}
	// The bucket is exactly empty, so one token takes 1/rate = 1s.
	if retry <= 900*time.Millisecond || retry > time.Second {
		t.Fatalf("retry = %v, want ~1s", retry)
	}
	clock = clock.Add(retry)
	if ok, _ := l.Allow("c"); !ok {
		t.Fatal("request refused after waiting the advertised retry")
	}
	// Refill caps at the burst.
	clock = clock.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("c"); !ok {
			t.Fatalf("request %d refused after a long idle", i)
		}
	}
	if ok, _ := l.Allow("c"); ok {
		t.Fatal("burst did not cap the refill")
	}
	st := l.Stats()
	if st.Allowed != 5 || st.Limited != 2 || st.Clients != 1 {
		t.Fatalf("stats = %+v, want 5 allowed, 2 limited, 1 client", st)
	}
}

// TestLimiterIsolatesClients: one client draining its bucket must not
// affect another's.
func TestLimiterIsolatesClients(t *testing.T) {
	clock := time.Unix(1000, 0)
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 1, Now: func() time.Time { return clock }})
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("first request from a refused")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("second request from a admitted past its burst")
	}
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("b throttled by a's empty bucket")
	}
}

// TestLimiterEvictsLRU bounds the client map: the least recently seen
// bucket goes first, and an evicted client returns with a fresh burst.
func TestLimiterEvictsLRU(t *testing.T) {
	clock := time.Unix(1000, 0)
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 1, MaxClients: 2, Now: func() time.Time { return clock }})
	l.Allow("a")
	l.Allow("b")
	l.Allow("a") // refresh a; b is now LRU
	l.Allow("c") // evicts b
	st := l.Stats()
	if st.Clients != 2 || st.Evicted != 1 {
		t.Fatalf("stats = %+v, want 2 clients, 1 evicted", st)
	}
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("evicted client did not restart with a full bucket")
	}
}

func TestLimiterDisabled(t *testing.T) {
	var l *Limiter
	if l = NewLimiter(LimiterConfig{}); l != nil {
		t.Fatal("zero rate did not disable the limiter")
	}
	if ok, retry := l.Allow("x"); !ok || retry != 0 {
		t.Fatal("nil limiter rejected a request")
	}
	if st := l.Stats(); st != (LimiterStats{}) {
		t.Fatalf("nil limiter stats = %+v, want zero", st)
	}
	if l.Rate() != 0 {
		t.Fatal("nil limiter reports a rate")
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{time.Millisecond, 10},     // 1000µs → Len64=10, [512µs, 1024µs)
		{time.Second, 20},          // 1e6 µs → Len64 = 20
		{100 * 24 * time.Hour, 39}, // clamped to the last bucket
		{-time.Second, 0},          // negative clamps to the first
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.d); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	// 90 fast observations and 10 slow ones: p50/p90 land in the fast
	// bucket, p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(1500 * time.Microsecond) // (1.024ms, 2.048ms]
	}
	for i := 0; i < 10; i++ {
		h.Observe(300 * time.Millisecond) // (262ms, 524ms]
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := 90*1.5 + 10*300
	if s.SumMS < wantSum-0.01 || s.SumMS > wantSum+0.01 {
		t.Fatalf("sum = %v ms, want %v", s.SumMS, wantSum)
	}
	if s.P50MS < 1.024 || s.P50MS > 2.048 {
		t.Fatalf("p50 = %v ms, want within the fast bucket", s.P50MS)
	}
	if s.P99MS < 262.144 || s.P99MS > 524.288 {
		t.Fatalf("p99 = %v ms, want within the slow bucket", s.P99MS)
	}
	if len(s.Buckets) != 2 || s.Buckets[0].Count != 90 || s.Buckets[1].Count != 10 {
		t.Fatalf("buckets = %+v, want two (90, 10)", s.Buckets)
	}
	if s.Buckets[0].LeMS >= s.Buckets[1].LeMS {
		t.Fatalf("bucket bounds out of order: %+v", s.Buckets)
	}
}

func TestHistogramSetPoolsUnmatchedUnderOther(t *testing.T) {
	s := NewHistogramSet("GET /a", "POST /b")
	s.Observe("GET /a", time.Millisecond)
	s.Observe("GET /a", time.Millisecond)
	s.Observe("", time.Millisecond)       // unmatched route
	s.Observe("PUT /c", time.Millisecond) // unregistered pattern
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot keys %v, want the two patterns plus other", snap)
	}
	if snap["GET /a"].Count != 2 || snap["POST /b"].Count != 0 || snap["other"].Count != 2 {
		t.Fatalf("counts a=%d b=%d other=%d, want 2, 0, 2",
			snap["GET /a"].Count, snap["POST /b"].Count, snap["other"].Count)
	}
}

func TestLoadSamplerDeltas(t *testing.T) {
	clock := time.Unix(0, 0)
	cpu := 0.0
	s := NewLoadSamplerWith(func() (float64, bool) { return cpu, true }, func() time.Time { return clock }, time.Second)
	s.capacity = 2 // pin GOMAXPROCS for the arithmetic below
	if got := s.Load(); got != 0 {
		t.Fatalf("baseline Load() = %v, want 0", got)
	}
	// Within the cache interval nothing is re-read.
	cpu = 100
	clock = clock.Add(500 * time.Millisecond)
	if got := s.Load(); got != 0 {
		t.Fatalf("cached Load() = %v, want 0", got)
	}
	// 1 CPU-second over 1 wall second at capacity 2 → 0.5.
	cpu = 1.0
	clock = time.Unix(1, 0)
	if got := s.Load(); got != 0.5 {
		t.Fatalf("Load() = %v, want 0.5", got)
	}
	// Clamped to 1 even if the reader jumps past capacity.
	cpu = 100
	clock = clock.Add(time.Second)
	if got := s.Load(); got != 1 {
		t.Fatalf("overloaded Load() = %v, want 1", got)
	}
}

func TestLoadSamplerUnreadable(t *testing.T) {
	clock := time.Unix(0, 0)
	s := NewLoadSamplerWith(func() (float64, bool) { return 0, false }, func() time.Time { return clock }, time.Millisecond)
	for i := 0; i < 3; i++ {
		clock = clock.Add(time.Second)
		if got := s.Load(); got != 0 {
			t.Fatalf("unreadable Load() = %v, want 0", got)
		}
	}
}

// TestLoadSamplerProc exercises the real procfs reader where available;
// the burn loop guarantees a non-zero delta on Linux.
func TestLoadSamplerProc(t *testing.T) {
	if _, ok := readProcSelfCPU(); !ok {
		t.Skip("/proc/self/stat not readable")
	}
	s := NewLoadSampler()
	s.minInterval = time.Nanosecond
	_ = s.Load()
	deadline := time.Now().Add(200 * time.Millisecond)
	x := 0.0
	for time.Now().Before(deadline) {
		x += 1.0 // busy loop to accrue CPU time
	}
	got := s.Load()
	if got < 0 || got > 1 {
		t.Fatalf("Load() = %v outside [0, 1] (burn=%v)", got, x)
	}
}
