package graph

// The layout constants the external model tests size their fixtures by.
const (
	InlineCap    = inlineCap
	HintMinAlive = hintMinAlive
)

// ChurnSequence drives a Graph or the naive model's with one stream of
// removals, additions and re-wirings.
var ChurnSequence = churnSequence
