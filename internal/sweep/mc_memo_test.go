package sweep

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/chaos"
	"repro/internal/mcyield"
	"repro/internal/obs"
	"repro/internal/tech"
)

// heldManager returns a manager whose first mc.sample chunk sleeps
// for hold, so the estimate that draws it stays in flight that long.
// It empties the process-wide estimate memo, so the test's keys miss.
func heldManager(t *testing.T, hold time.Duration) (*Manager, *chaos.Injector) {
	t.Helper()
	spec := fmt.Sprintf(`{"seed":1,"rules":[{"point":"mc.sample","mode":"delay","delay_ms":%d,"max":1}]}`,
		hold.Milliseconds())
	inj, err := chaos.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	estimateMemo.Reset()
	return NewManager(Config{Registry: obs.NewRegistry(), Chaos: inj}), inj
}

// waitFired polls until the injector has fired once: the held
// estimate is then inside its delay.
func waitFired(t *testing.T, inj *chaos.Injector) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for inj.Fired() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the held estimate never reached mc.sample")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMCEstimatesDoNotQueue: an estimate held inside an mc.sample
// delay must not hold up an estimate under a different (samples,
// sigma, seed) key. When one lock guarded the whole estimate, the
// second waited for the first to finish.
func TestMCEstimatesDoNotQueue(t *testing.T) {
	m, inj := heldManager(t, 3*time.Second)
	slow := canon.Request{MCSamples: 16, MCSigma: 0.2, MCSeed: 7001}
	fast := canon.Request{MCSamples: 24, MCSigma: 0.15, MCSeed: 7002}

	slowDone := make(chan error, 1)
	go func() {
		_, err := m.mcEstimate(tech.CDA07, slow)
		slowDone <- err
	}()
	waitFired(t, inj)

	fastDone := make(chan error, 1)
	go func() {
		_, err := m.mcEstimate(tech.CDA07, fast)
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-slowDone:
		t.Fatal("the held estimate finished first: estimates under distinct keys ran one at a time")
	}
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestMCIdenticalEstimatesRunOnce: identical concurrent requests share
// one estimate, so mcyield_estimates_total rises by exactly one.
func TestMCIdenticalEstimatesRunOnce(t *testing.T) {
	m, inj := heldManager(t, 200*time.Millisecond)
	req := canon.Request{MCSamples: 16, MCSigma: 0.2, MCSeed: 7003}

	const callers = 5
	results := make([]mcyield.Result, callers)
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		res, err := m.mcEstimate(tech.CDA07, req)
		if err != nil {
			t.Error(err)
		}
		results[i] = res
	}
	wg.Add(1)
	go run(0)
	waitFired(t, inj)
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go run(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got %+v, want %+v", i, results[i], results[0])
		}
	}
	if got := m.mcStats.Estimates.Value(); got != 1 {
		t.Fatalf("mcyield_estimates_total rose by %d, want 1", got)
	}
}
