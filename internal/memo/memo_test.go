package memo

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// counted wraps fn so the test can count how often the table ran it.
type counted struct {
	mu    sync.Mutex
	calls int
}

func (c *counted) fn(v int) func() (int, error) {
	return func() (int, error) {
		c.mu.Lock()
		c.calls++
		c.mu.Unlock()
		return v, nil
	}
}

func (c *counted) n() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestSingleFlight: callers that arrive while the leader runs wait
// for its value, and callers after it read the stored value; fn runs
// once for all of them.
func TestSingleFlight(t *testing.T) {
	tb := New[string, int]("test.single", 8)
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan int)
	go func() {
		v, hit, err := tb.Do("k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		if err != nil || hit {
			t.Errorf("leader: v=%d hit=%v err=%v", v, hit, err)
		}
		leaderDone <- v
	}()
	<-started

	var c counted
	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := tb.Do("k", c.fn(-1))
			if err != nil || !hit || v != 42 {
				t.Errorf("waiter: v=%d hit=%v err=%v", v, hit, err)
			}
		}()
	}
	close(release)
	if v := <-leaderDone; v != 42 {
		t.Fatalf("leader got %d", v)
	}
	wg.Wait()
	if c.n() != 0 {
		t.Fatalf("waiters ran fn %d times; the leader's flight must serve them", c.n())
	}
	if st := tb.Stats(); st.Misses != 1 || st.Hits != waiters {
		t.Fatalf("stats %+v, want 1 miss and %d hits", st, waiters)
	}
}

// TestFailedLeaderNotServed: a failing fn stores nothing, and a caller
// that was waiting on it runs its own fn instead of receiving the
// leader's error.
func TestFailedLeaderNotServed(t *testing.T) {
	tb := New[string, int]("test.fail", 8)
	started, release := make(chan struct{}), make(chan struct{})
	boom := errors.New("deadline")
	leaderErr := make(chan error)
	go func() {
		_, _, err := tb.Do("k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		leaderErr <- err
	}()
	<-started

	var c counted
	waiter := make(chan error)
	go func() {
		v, hit, err := tb.Do("k", c.fn(7))
		if err == nil && (hit || v != 7) {
			err = errors.New("waiter was not served its own result")
		}
		waiter <- err
	}()
	close(release)
	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Fatalf("leader err %v", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if c.n() != 1 {
		t.Fatalf("waiter fn ran %d times, want 1", c.n())
	}
	// The waiter's success is what the table now holds.
	v, hit, err := tb.Do("k", c.fn(-1))
	if err != nil || !hit || v != 7 {
		t.Fatalf("after recovery: v=%d hit=%v err=%v", v, hit, err)
	}
}

// TestPanicReleasesKey: a panicking fn re-panics into its caller,
// releases the key, and wakes its waiters, who compute for themselves.
func TestPanicReleasesKey(t *testing.T) {
	tb := New[string, int]("test.panic", 8)
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		tb.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("generator invariant")
		})
	}()
	<-started

	var c counted
	waiter := make(chan int)
	go func() {
		v, _, err := tb.Do("k", c.fn(9))
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- v
	}()
	close(release)
	if r := <-recovered; r != "generator invariant" {
		t.Fatalf("leader recovered %v, want the fn's panic", r)
	}
	if v := <-waiter; v != 9 {
		t.Fatalf("waiter got %d, want its own 9", v)
	}
	if tb.Len() != 1 {
		t.Fatalf("table holds %d keys, want the waiter's one", tb.Len())
	}
}

// TestDistinctKeysDoNotBlock: a flight on one key never holds up
// another key, because fn runs outside the table lock.
func TestDistinctKeysDoNotBlock(t *testing.T) {
	tb := New[string, int]("test.distinct", 8)
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		tb.Do("slow", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started

	other := make(chan int)
	go func() {
		v, _, _ := tb.Do("fast", func() (int, error) { return 2, nil })
		other <- v
	}()
	select {
	case v := <-other:
		if v != 2 {
			t.Fatalf("fast key got %d", v)
		}
	case <-leaderDone:
		t.Fatal("slow key finished first: distinct keys serialized")
	case <-time.After(10 * time.Second):
		t.Fatal("fast key blocked behind the slow key's flight")
	}
	close(release)
	<-leaderDone
}

// TestCapacityClears: inserting a new key into a full table clears
// it, so every earlier key recomputes; Reset does the same on demand
// and leaves the counters alone.
func TestCapacityClears(t *testing.T) {
	tb := New[int, int]("test.cap", 2)
	var c counted
	for _, k := range []int{1, 2, 1, 2} {
		if _, _, err := tb.Do(k, c.fn(k)); err != nil {
			t.Fatal(err)
		}
	}
	if c.n() != 2 || tb.Len() != 2 {
		t.Fatalf("calls %d len %d, want 2 and 2", c.n(), tb.Len())
	}
	tb.Do(3, c.fn(3)) // full: clears, then holds key 3 alone
	if tb.Len() != 1 {
		t.Fatalf("len %d after overflow, want 1", tb.Len())
	}
	if _, hit, _ := tb.Do(1, c.fn(1)); hit {
		t.Fatal("key 1 survived the clear")
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("len %d after Reset", tb.Len())
	}
	if _, hit, _ := tb.Do(3, c.fn(3)); hit {
		t.Fatal("key 3 survived Reset")
	}
	if st := tb.Stats(); st.Hits != 2 || st.Misses != 5 {
		t.Fatalf("stats %+v, want 2 hits and 5 misses", st)
	}
}

// TestTablesRegistry: every table is listed for telemetry by name.
func TestTablesRegistry(t *testing.T) {
	New[int, int]("test.registry", 1)
	found := false
	names := Tables()
	for i, c := range names {
		if i > 0 && names[i-1].Name() > c.Name() {
			t.Fatalf("tables not sorted: %q before %q", names[i-1].Name(), c.Name())
		}
		found = found || c.Name() == "test.registry"
	}
	if !found {
		t.Fatal("new table missing from Tables()")
	}
}
