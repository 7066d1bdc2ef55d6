package launcher

import (
	"fmt"
	"os"
	"testing"
)

// TestMain installs the bookkeeping check for every test in the package:
// after each supervision pass, the counts and the submit frontier the
// launcher maintains must equal a from-scratch recount over l.groups. The
// give-up, resample, zombie, walltime, crash-restart, durable-resume and
// convergence-cancel studies all run under it.
func TestMain(m *testing.M) {
	passCheck = checkBookkeeping
	os.Exit(m.Run())
}

// checkBookkeeping recounts with the predicates the per-pass scans used
// before the counts were maintained, and panics on the first disagreement.
func checkBookkeeping(l *Launcher) {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("launcher bookkeeping: "+format, args...))
	}
	if len(l.order) != len(l.groups) {
		fail("%d groups in order, %d in the map", len(l.order), len(l.groups))
	}
	var inFlight, running, finished, pending, eligible, jobs int
	lowest := len(l.order) // lowest eligible position
	for pos, id := range l.order {
		g := l.groups[id]
		if g == nil || g.pos != pos {
			fail("order[%d] = group %d, which does not know its position", pos, id)
		}
		if c := l.classify(g); g.class != c {
			fail("group %d counted as class %05b, is %05b", id, g.class, c)
		}
		live := !g.givenUp && !g.abandoned
		done := g.finished(l.reporters)
		if g.job != 0 {
			jobs++
			if l.jobIndex[g.job] != g {
				fail("group %d job %d missing from the job index", id, g.job)
			}
			if live && !done {
				inFlight++
			}
		}
		if g.jobRunning {
			running++
		}
		switch {
		case !live:
		case done:
			finished++
		default:
			pending++
		}
		if g.job == 0 && !g.completedOK && live && !done {
			eligible++
			lowest = min(lowest, pos)
		}
	}
	if jobs != len(l.jobIndex) {
		fail("%d groups hold a job, job index has %d", jobs, len(l.jobIndex))
	}
	want := [numClasses]int{
		classInFlight: inFlight,
		classRunning:  running,
		classFinished: finished,
		classPending:  pending,
		classEligible: eligible,
	}
	if l.counts != want {
		fail("counts {in flight, running, finished, pending, eligible} = %v, recount %v", l.counts, want)
	}
	if lowest < l.next {
		fail("group at position %d is eligible behind the submit frontier %d", lowest, l.next)
	}
}
