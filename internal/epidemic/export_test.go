package epidemic

// Grow exposes grow to the external tests, which drive it through the
// families that embed an Epoch.
func (e *Epoch[S, D]) Grow(numIDs, ceil int) { e.grow(numIDs, ceil) }

// ReserveDeferrals exposes the engine's, so that an allocation count of
// warm rounds cannot read a deferral bucket overfilled by chance.
func (e *Epoch[S, D]) ReserveDeferrals(n int) { e.engine.ReserveDeferrals(n) }
