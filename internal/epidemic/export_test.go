package epidemic

// Grow exposes grow to the external tests, which drive it through the
// families that embed an Epoch.
func (e *Epoch[S, D]) Grow(numIDs int) { e.grow(numIDs) }
