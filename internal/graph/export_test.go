package graph

// The layout constants the external model tests size their fixtures by.
const (
	InlineCap    = inlineCap
	HintMinAlive = hintMinAlive
)
