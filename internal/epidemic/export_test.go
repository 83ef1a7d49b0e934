package epidemic

// Grow exposes grow to the external tests, which drive it through the
// families that embed an Epoch.
func (e *Epoch[S, D]) Grow(numIDs, ceil int) { e.grow(numIDs, ceil) }
