package jobcontrol

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestSubmitRunsImmediately(t *testing.T) {
	c := NewCluster(4)
	j, err := c.Submit(JobSpec{Executable: "a", Count: 2, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateRunning {
		t.Fatalf("state = %s, want running", j.State)
	}
	if _, free := c.CPUs(); free != 2 {
		t.Errorf("free cpus = %d, want 2", free)
	}
	c.Advance(time.Minute)
	got, err := c.Lookup(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCompleted {
		t.Errorf("state = %s, want completed", got.State)
	}
	if got.CPUSeconds != 120 {
		t.Errorf("CPUSeconds = %v, want 120", got.CPUSeconds)
	}
	if _, free := c.CPUs(); free != 4 {
		t.Errorf("cpus not released: free = %d", free)
	}
}

func TestQueueingAndPriority(t *testing.T) {
	c := NewCluster(2)
	low, err := c.Submit(JobSpec{Executable: "low", Count: 2, Duration: 10 * time.Minute, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := c.Submit(JobSpec{Executable: "mid", Count: 2, Duration: time.Minute, Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	high, err := c.Submit(JobSpec{Executable: "high", Count: 2, Duration: time.Minute, Priority: 9})
	if err != nil {
		t.Fatal(err)
	}
	if mid.State != StateQueued || high.State != StateQueued {
		t.Fatalf("later jobs should queue")
	}
	// When the low job finishes, the high-priority job must start first.
	c.Advance(10 * time.Minute)
	jh, _ := c.Lookup(high.ID)
	jm, _ := c.Lookup(mid.ID)
	jl, _ := c.Lookup(low.ID)
	if jl.State != StateCompleted {
		t.Errorf("low = %s", jl.State)
	}
	if jh.State != StateRunning {
		t.Errorf("high = %s, want running", jh.State)
	}
	if jm.State != StateQueued {
		t.Errorf("mid = %s, want queued", jm.State)
	}
	c.Advance(2 * time.Minute)
	jm, _ = c.Lookup(mid.ID)
	if jm.State != StateRunning && jm.State != StateCompleted {
		t.Errorf("mid after high completes = %s", jm.State)
	}
}

func TestCancel(t *testing.T) {
	c := NewCluster(1)
	j, err := c.Submit(JobSpec{Executable: "x", Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(j.ID, "operator request"); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Lookup(j.ID)
	if got.State != StateCanceled || got.Detail != "operator request" {
		t.Errorf("job = %s (%s)", got.State, got.Detail)
	}
	if err := c.Cancel(j.ID, "again"); !errors.Is(err, ErrBadState) {
		t.Errorf("double cancel = %v, want ErrBadState", err)
	}
	if err := c.Cancel("lrm-999", ""); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel unknown = %v", err)
	}
	// Canceling a queued job removes it from the queue.
	a, err := c.Submit(JobSpec{Executable: "a", Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(JobSpec{Executable: "b", Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(b.ID, ""); err != nil {
		t.Fatal(err)
	}
	gb, _ := c.Lookup(b.ID)
	if gb.State != StateCanceled {
		t.Errorf("queued cancel: %s", gb.State)
	}
	_ = a
}

func TestSuspendResumeFreesResources(t *testing.T) {
	c := NewCluster(2)
	long, err := c.Submit(JobSpec{Executable: "long", Count: 2, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(10 * time.Minute)
	urgent, err := c.Submit(JobSpec{Executable: "urgent", Count: 2, Duration: 5 * time.Minute, Priority: 10})
	if err != nil {
		t.Fatal(err)
	}
	if urgent.State != StateQueued {
		t.Fatalf("urgent should queue while long runs")
	}
	// The §2 scenario: suspend the long job to free resources.
	if err := c.Suspend(long.ID); err != nil {
		t.Fatal(err)
	}
	u, _ := c.Lookup(urgent.ID)
	if u.State != StateRunning {
		t.Fatalf("urgent = %s after suspend, want running", u.State)
	}
	c.Advance(5 * time.Minute)
	u, _ = c.Lookup(urgent.ID)
	if u.State != StateCompleted {
		t.Fatalf("urgent = %s, want completed", u.State)
	}
	if err := c.Resume(long.ID); err != nil {
		t.Fatal(err)
	}
	// 10 minutes were already served; 50 remain.
	c.Advance(49 * time.Minute)
	l, _ := c.Lookup(long.ID)
	if l.State != StateRunning {
		t.Fatalf("long = %s, want still running", l.State)
	}
	c.Advance(time.Minute)
	l, _ = c.Lookup(long.ID)
	if l.State != StateCompleted {
		t.Errorf("long = %s, want completed", l.State)
	}
	if got, want := l.CPUSeconds, 3600*2.0; got != want {
		t.Errorf("CPUSeconds = %v, want %v", got, want)
	}
	// State guards.
	if err := c.Suspend(long.ID); !errors.Is(err, ErrBadState) {
		t.Errorf("suspend completed = %v", err)
	}
	if err := c.Resume(long.ID); !errors.Is(err, ErrBadState) {
		t.Errorf("resume completed = %v", err)
	}
}

func TestMaxTimeEnforcement(t *testing.T) {
	c := NewCluster(1)
	j, err := c.Submit(JobSpec{Executable: "x", Duration: time.Hour, MaxTime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(9 * time.Minute)
	got, _ := c.Lookup(j.ID)
	if got.State != StateRunning {
		t.Fatalf("state at 9m = %s", got.State)
	}
	c.Advance(2 * time.Minute)
	got, _ = c.Lookup(j.ID)
	if got.State != StateFailed || got.Detail != "maxtime exceeded" {
		t.Errorf("state = %s (%s), want failed/maxtime", got.State, got.Detail)
	}
	if _, free := c.CPUs(); free != 1 {
		t.Errorf("cpus not released on timeout")
	}
}

func TestMaxTimeSpansSuspension(t *testing.T) {
	c := NewCluster(1)
	j, err := c.Submit(JobSpec{Executable: "x", Duration: time.Hour, MaxTime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(6 * time.Minute)
	if err := c.Suspend(j.ID); err != nil {
		t.Fatal(err)
	}
	c.Advance(time.Hour) // suspended time must not count as runtime
	if err := c.Resume(j.ID); err != nil {
		t.Fatal(err)
	}
	c.Advance(3 * time.Minute)
	got, _ := c.Lookup(j.ID)
	if got.State != StateRunning {
		t.Fatalf("state = %s, want running (9m runtime)", got.State)
	}
	c.Advance(2 * time.Minute)
	got, _ = c.Lookup(j.ID)
	if got.State != StateFailed {
		t.Errorf("state = %s, want failed at 10m runtime", got.State)
	}
}

func TestOverCapacity(t *testing.T) {
	c := NewCluster(4)
	if _, err := c.Submit(JobSpec{Executable: "x", Count: 5, Duration: time.Minute}); !errors.Is(err, ErrOverCapacity) {
		t.Errorf("Submit = %v, want ErrOverCapacity", err)
	}
}

func TestZeroDurationJobCompletesImmediately(t *testing.T) {
	c := NewCluster(1)
	j, err := c.Submit(JobSpec{Executable: "noop"})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateCompleted {
		t.Errorf("state = %s, want completed", j.State)
	}
	if _, free := c.CPUs(); free != 1 {
		t.Errorf("cpus leaked by zero-duration job")
	}
}

func TestEvents(t *testing.T) {
	c := NewCluster(1)
	var events []Event
	c.Subscribe(func(e Event) { events = append(events, e) })
	j, err := c.Submit(JobSpec{Executable: "x", Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(time.Minute)
	kinds := make([]EventKind, 0, len(events))
	for _, e := range events {
		if e.JobID == j.ID {
			kinds = append(kinds, e.Kind)
		}
	}
	want := []EventKind{EventQueued, EventStarted, EventCompleted}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event[%d] = %s, want %s", i, kinds[i], want[i])
		}
	}
}

func TestSetPriorityReordersQueue(t *testing.T) {
	c := NewCluster(1)
	if _, err := c.Submit(JobSpec{Executable: "running", Duration: time.Hour}); err != nil {
		t.Fatal(err)
	}
	a, err := c.Submit(JobSpec{Executable: "a", Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(JobSpec{Executable: "b", Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetPriority(b.ID, 5); err != nil {
		t.Fatal(err)
	}
	c.Advance(time.Hour + time.Minute)
	gb, _ := c.Lookup(b.ID)
	ga, _ := c.Lookup(a.ID)
	if gb.State != StateCompleted {
		t.Errorf("b = %s, want completed (raised priority)", gb.State)
	}
	if ga.State != StateRunning {
		t.Errorf("a = %s, want running after b", ga.State)
	}
	if err := c.SetPriority("lrm-999", 1); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("SetPriority unknown = %v", err)
	}
}

func TestUtilization(t *testing.T) {
	c := NewCluster(4)
	if got := c.Utilization(); got != 0 {
		t.Errorf("idle utilization = %v", got)
	}
	if _, err := c.Submit(JobSpec{Executable: "x", Count: 3, Duration: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if got := c.Utilization(); got != 0.75 {
		t.Errorf("utilization = %v, want 0.75", got)
	}
}

// Property: CPUs are conserved — after any sequence of submissions and a
// long Advance, free CPUs return to the total.
func TestQuickCPUConservation(t *testing.T) {
	f := func(counts []uint8, durations []uint8) bool {
		c := NewCluster(8)
		for i, cnt := range counts {
			d := time.Duration(1) * time.Minute
			if i < len(durations) {
				d = time.Duration(durations[i]%30+1) * time.Minute
			}
			spec := JobSpec{Executable: "p", Count: int(cnt%8) + 1, Duration: d}
			if _, err := c.Submit(spec); err != nil {
				return false
			}
		}
		c.Advance(1000 * time.Hour)
		total, free := c.CPUs()
		if total != free {
			return false
		}
		for _, j := range c.Jobs() {
			if !j.State.Terminal() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: accounted CPU seconds equal duration × count for completed
// jobs regardless of queueing order.
func TestQuickAccounting(t *testing.T) {
	f := func(durs []uint8) bool {
		c := NewCluster(3)
		type want struct {
			id  string
			cpu float64
		}
		var wants []want
		for _, d8 := range durs {
			d := time.Duration(d8%20+1) * time.Minute
			count := int(d8%3) + 1
			j, err := c.Submit(JobSpec{Executable: "w", Count: count, Duration: d})
			if err != nil {
				return false
			}
			wants = append(wants, want{j.ID, d.Seconds() * float64(count)})
		}
		c.Advance(10000 * time.Hour)
		for _, w := range wants {
			j, err := c.Lookup(w.id)
			if err != nil || j.State != StateCompleted || j.CPUSeconds != w.cpu {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLookupAllocatesNothing is the allocation gate of a job status:
// the snapshot comes back by value, so reading a job's state allocates
// nothing.
func TestLookupAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := NewCluster(4)
	j, err := c.Submit(JobSpec{Executable: "a", Count: 2, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if job, err := c.Lookup(j.ID); err != nil || job.State != StateRunning {
			t.Fatalf("Lookup = %s, %v", job.State, err)
		}
	}); n != 0 {
		t.Errorf("Lookup allocates %v times, want 0", n)
	}
}

// Utilization returns the fraction of CPUs currently busy.
func (c *Cluster) Utilization() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.totalCPUs == 0 {
		return 0
	}
	return float64(c.totalCPUs-c.freeCPUs) / float64(c.totalCPUs)
}
