package cluster

import "time"

// WithTransport is the external tests' seam onto the unexported
// transport override: opts with the first retry backoff and the
// membership poll interval replaced (zero keeps a constant, a negative
// poll reads the membership on every Rebalance call).
func WithTransport(opts Options, backoff, poll time.Duration) Options {
	opts.t.backoff, opts.t.poll = backoff, poll
	return opts
}

// ExchangeRounds exports exchangeRounds: how many rounds of candidates
// the client asks each server for.
const ExchangeRounds = exchangeRounds
