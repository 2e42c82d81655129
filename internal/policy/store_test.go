package policy

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

const boDN = "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu"

func TestStoreUpdateAndHooks(t *testing.T) {
	s := NewStore(MustParse(boDN+`: &(action = start)`, "VO:NFC"))
	if s.Current().Source != "VO:NFC" {
		t.Fatalf("Source = %q", s.Current().Source)
	}
	fired := 0
	var current *Policy
	s.OnChange(func() {
		fired++
		// The hook must observe the NEW policy already installed.
		current = s.Current()
	})
	s.Replace(MustParse(boDN+`: &(action = cancel)`, s.Current().Source))
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
	if current == nil || !strings.Contains(current.Unparse(), "cancel") {
		t.Errorf("hook saw stale policy: %v", current)
	}
	s.Replace(nil) // no-op
	if fired != 1 {
		t.Errorf("Replace(nil) fired hooks")
	}
}

// TestStoreHookEpochOrdering pins the Replace delivery contract under
// racing updates: compilation happens outside the lock, so a slow
// compile can finish after a faster later one — hooks must still
// observe epochs in strictly increasing order, and the newest epoch
// must always be the last one announced (coalescing may skip
// intermediate epochs but never reorders or loses the final state).
func TestStoreHookEpochOrdering(t *testing.T) {
	// Two policies with very different compile costs, to make racing
	// Replace calls overtake each other between compile and swap.
	small := MustParse(boDN+`: &(action = start)`, "VO")
	var big strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&big, "/O=Grid/CN=User %d: &(action = start)(executable = sim%d)\n", i, i)
	}
	bigPol := MustParse(big.String(), "VO")

	s := NewStore(small)
	var (
		mu       sync.Mutex
		observed []uint64
	)
	s.OnEpochChange(func(epoch uint64) {
		mu.Lock()
		observed = append(observed, epoch)
		mu.Unlock()
	})

	const goroutines = 8
	const replacesPer = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < replacesPer; i++ {
				pol := small
				if (g+i)%2 == 0 {
					pol = bigPol
				}
				if e := s.Replace(pol); e == 0 {
					t.Error("Replace returned epoch 0 for a non-nil policy")
					return
				}
				// Readers must always see a coherent (policy, compiled,
				// epoch) triple.
				pol2, compiled, epoch := s.Snapshot()
				if pol2 == nil || compiled == nil || epoch == 0 {
					t.Errorf("Snapshot returned incoherent view: %v %v %d", pol2, compiled, epoch)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(observed) == 0 {
		t.Fatal("no hook deliveries observed")
	}
	for i := 1; i < len(observed); i++ {
		if observed[i] <= observed[i-1] {
			t.Fatalf("hook epochs out of order at %d: %d after %d (full: %v)",
				i, observed[i], observed[i-1], observed)
		}
	}
	_, _, final := s.Snapshot()
	if want := uint64(1 + goroutines*replacesPer); final != want {
		t.Errorf("final epoch = %d, want %d", final, want)
	}
	if last := observed[len(observed)-1]; last != final {
		t.Errorf("last announced epoch = %d, but store is at %d: the newest state was never delivered", last, final)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore(MustParse(boDN+`: &(action = start)`, "VO"))
	s.OnChange(func() { _ = s.Current() }) // reentrant read from the hook
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if i%10 == 0 {
					s.Replace(MustParse(boDN+`: &(action = start)`, "VO"))
				}
				if s.Current() == nil {
					t.Error("Current returned nil")
					return
				}
			}
		}()
	}
	wg.Wait()
}
