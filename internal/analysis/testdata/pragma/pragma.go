// Corpus for the ignore-pragma lifecycle: a justified pragma suppresses,
// and malformed / unknown-analyzer / unused pragmas are findings.
package pragma

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func suppressed(c *Counter) {
	//nfalint:ignore lockheld corpus exercises suppression on the next line
	c.n = 1 // ok: suppressed above
}

func suppressedWildcard(c *Counter) {
	c.n = 2 //nfalint:ignore * wildcard suppression on the same line
}

func unsuppressed(c *Counter) {
	c.n = 3 // want lockheld "does not hold"
}

//nfalint:ignore bogus not a real analyzer; want pragma "unknown analyzer"

/* want pragma "malformed ignore pragma" */ //nfalint:ignore lockheld

func clean() {
	//nfalint:ignore lockheld nothing to silence here; want pragma "unused ignore pragma"
	_ = 0
}
