package scenario

import (
	"strings"
	"testing"
	"time"

	"rhea/internal/rhea"
)

// TestUnhealthyCycleFailsJob: a cycle whose verdict is unhealthy ends its
// job failed at once — no retry, the typed error in the job's error, and
// no diag line for that cycle. A solve held to an unreachable tolerance
// and a Rayleigh number whose buoyancy overflows give the two distinct
// errors.
func TestUnhealthyCycleFailsJob(t *testing.T) {
	cases := []struct {
		name      string
		mutate    func(*Spec)
		want, not error
	}{
		{"not-converged", func(sp *Spec) { sp.MinresTol = 1e-300 }, rhea.ErrNotConverged, rhea.ErrNonFinite},
		{"non-finite", func(sp *Spec) { sp.Ra = 1e308 }, rhea.ErrNonFinite, rhea.ErrNotConverged},
	}
	m := newTestManager(t, t.TempDir(), 1)
	m.retryBase = time.Millisecond
	defer m.Close()
	for _, c := range cases {
		sp := tinySpec(2)
		c.mutate(&sp)
		v, err := m.Submit(sp)
		if err != nil {
			t.Fatalf("%s: Submit: %v", c.name, err)
		}
		jv := waitTerminal(t, m, v.ID)
		if jv.State != StateFailed || jv.Retries != 0 || jv.CyclesDone != 0 {
			t.Errorf("%s: job finished %s after %d retries with %d cycles (%q), want failed, 0, 0",
				c.name, jv.State, jv.Retries, jv.CyclesDone, jv.Error)
		}
		if !strings.Contains(jv.Error, c.want.Error()) || strings.Contains(jv.Error, c.not.Error()) {
			t.Errorf("%s: job error %q, want %q alone", c.name, jv.Error, c.want)
		}
		if ds, _, _, _ := m.Diags(v.ID, 0); len(ds) != 0 {
			t.Errorf("%s: the failing cycle was streamed: %+v", c.name, ds)
		}
		t.Logf("%s: %s", c.name, jv.Error)
	}
}
