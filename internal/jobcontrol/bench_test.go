package jobcontrol

import (
	"testing"
	"time"
)

func BenchmarkSubmitAndComplete(b *testing.B) {
	c := NewCluster(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Submit(JobSpec{Executable: "x", Count: 1, Duration: time.Minute}); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			c.Advance(2 * time.Minute) // drain periodically
		}
	}
}

func BenchmarkAdvanceBusyCluster(b *testing.B) {
	c := NewCluster(256)
	for i := 0; i < 1024; i++ {
		if _, err := c.Submit(JobSpec{Executable: "x", Count: 1, Duration: time.Hour}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Advance(time.Second)
	}
}

// BenchmarkSubmitCancel is the steady state of a resource whose jobs
// are cancelled: once the ended-job ring is full, every cancel reaps the
// oldest ended job, and a listener hears all four events.
func BenchmarkSubmitCancel(b *testing.B) {
	c := NewCluster(4)
	c.Subscribe(func(Event) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j, err := c.Submit(JobSpec{Executable: "x", Count: 1, Duration: time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Cancel(j.ID, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
