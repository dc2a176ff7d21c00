// Corpus for the ctxfirst analyzer: exported engine entry points taking a
// context.Context must check (or thread) it before the first layer-sized
// allocation or Build call.
package ctxfirst

import "context"

type dag struct{}

type index struct{}

// Build stands for the layer-sized precomputation (unroll.Build,
// lengthrange.Build).
func Build(n int) *dag { return &dag{} }

// BuildCtx is the ctx-aware builder: threading the context into it IS the
// check.
func BuildCtx(ctx context.Context, n int) (*dag, error) { return &dag{}, nil }

// NewUFA stands for the enumerator constructors.
func NewUFA(n int) *index { return &index{} }

// BadBuildFirst builds before ever consulting its context.
func BadBuildFirst(ctx context.Context, n int) *dag {
	d := Build(n) // want ctxfirst "Build runs before BadBuildFirst consults its Context"
	if ctx.Err() != nil {
		return nil
	}
	return d
}

// BadNeverChecks takes a context it never uses at all.
func BadNeverChecks(ctx context.Context, n int) *index {
	return NewUFA(n) // want ctxfirst "NewUFA runs before BadNeverChecks consults its Context"
}

// BadAllocFirst allocates layer-sized state before the check.
func BadAllocFirst(ctx context.Context, n int) []int {
	buf := make([]int, n) // want ctxfirst "layer-sized allocation before BadAllocFirst consults its Context"
	if err := ctx.Err(); err != nil {
		return nil
	}
	return buf
}

// GoodCheckFirst consults the context before building.
func GoodCheckFirst(ctx context.Context, n int) (*dag, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return Build(n), nil
}

// GoodThreads passes the context into the ctx-aware builder — the callee
// owns the per-layer checks.
func GoodThreads(ctx context.Context, n int) (*dag, error) {
	return BuildCtx(ctx, n)
}

// GoodNilGuard is the nil-tolerant entry-point idiom: the nil comparison
// counts as consulting the context.
func GoodNilGuard(ctx context.Context, n int) (*dag, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return Build(n), nil
}

// GoodBoundedAlloc sizes its scratch from data already in hand, which is
// not a layer-sized allocation; the late ctx use is irrelevant.
func GoodBoundedAlloc(ctx context.Context, words []int) []int {
	out := make([]int, len(words))
	_ = ctx.Err()
	return out
}

// unexportedBuildsFirst is not an entry point — internal helpers may rely
// on their exported callers having checked already.
func unexportedBuildsFirst(ctx context.Context, n int) *dag {
	d := Build(n)
	_ = ctx
	return d
}

// NoContext has no context parameter and is out of scope.
func NoContext(n int) *dag { return Build(n) }
