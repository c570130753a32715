// Package attack exercises the spanpair analyzer: spans that can leave
// their function unended are marked; ended, deferred, and handed-off spans
// stay silent.
package attack

import "dnnlock/internal/obs"

func work() {}

// Never ended anywhere.
func neverEnded(tr *obs.Tracer) {
	sp := tr.Start("x") // want "span from obs.Start is never ended: add defer sp.End"
	_ = sp
}

// Opened and thrown away.
func discarded(tr *obs.Tracer) {
	tr.Start("x") // want "span from obs.Start is discarded: it can never be ended"
}

func blanked(tr *obs.Tracer) {
	_ = tr.Start("x") // want "span from obs.Start is assigned to _: it can never be ended"
}

// One return path skips the End.
func leakOnReturn(tr *obs.Tracer, cond bool) {
	sp := tr.Start("x")
	if cond {
		return // want `span from obs.Start \(line \d+\) is not ended on this return path`
	}
	sp.End()
}

// Ends in one branch only, then falls off the end of the function.
func fallsOff(tr *obs.Tracer, cond bool) {
	sp := tr.Start("x") // want "span from obs.Start is not ended on the fall-through path to the end of the function"
	if cond {
		sp.End()
	}
}

// A child span leaks like any other.
func childLeaks(sp *obs.Span, cond bool) {
	c := sp.Child("y")
	if cond {
		return // want `span from obs.Child \(line \d+\) is not ended on this return path`
	}
	c.End()
}

// Deferred End covers every exit, including panics and early returns.
func deferred(tr *obs.Tracer, cond bool) {
	sp := tr.Start("x")
	defer sp.End()
	if cond {
		return
	}
	work()
}

// Ended on every path explicitly: clean.
func bothPaths(tr *obs.Tracer, cond bool) {
	sp := tr.Start("x")
	if cond {
		sp.End()
		return
	}
	sp.End()
}

// Returned to the caller: the caller owns it now.
func handedBack(tr *obs.Tracer) *obs.Span {
	sp := tr.Start("x")
	return sp
}

// Stored into a longer-lived structure: the structure owns it now.
type holder struct{ sp *obs.Span }

func (h *holder) open(tr *obs.Tracer) {
	h.sp = tr.Start("x")
}

func storedAfterBind(tr *obs.Tracer, h *holder) {
	sp := tr.Start("x")
	h.sp = sp
}

// Ending through a local alias counts.
func aliased(tr *obs.Tracer) {
	sp := tr.Start("x")
	s2 := sp
	s2.End()
}

// Passing the span to a helper does NOT discharge: helpers decorate spans,
// they do not adopt them.
func argPassed(tr *obs.Tracer, annotate func(*obs.Span)) {
	sp := tr.Start("x") // want "span from obs.Start is never ended: add defer sp.End"
	annotate(sp)
}

// An End inside a deferred closure counts as deferred.
func deferredClosure(tr *obs.Tracer, cond bool) {
	sp := tr.Start("x")
	defer func() {
		sp.Event("done")
		sp.End()
	}()
	if cond {
		return
	}
	work()
}
