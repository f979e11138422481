package nn

import "github.com/evfed/evfed/internal/mat"

// Workspace is a reusable, shape-keyed scratch arena for forward and
// backward passes. It removes every per-batch allocation from the BPTT
// hot path: layer caches, gate/cell/hidden timestep panels, gradient
// batches and loss-gradient buffers are all bump-allocated from the
// workspace and recycled with Reset.
//
// Ownership contract (see DESIGN.md "Performance model"):
//
//   - A Workspace belongs to exactly one goroutine. It is not safe for
//     concurrent use; parallel workers each own one (gradPool does this).
//   - Reset recycles everything handed out since the previous Reset. The
//     owner calls it at a point where no workspace-backed buffer is live —
//     in training, between batches; in inference, PredictBatchWS resets
//     on entry.
//   - Any batch or sequence returned by a workspace-backed ForwardBatch,
//     BackwardBatch or PredictBatchWS aliases the arena. Callers must
//     copy out whatever they need to retain past the next Reset (or next
//     PredictBatchWS call).
//   - After warm-up (one pass at each distinct shape) the arena reaches a
//     fixed point and steady-state passes perform zero allocations.
//
// Passing a nil *Workspace everywhere it is accepted restores the old
// allocate-per-call behaviour; results are bit-for-bit identical either
// way.
type Workspace struct {
	heads    map[int]*headArena
	anys     map[int]*anyArena
	mats     map[matKey]*matArena
	matLists map[int]*matListArena
	seqLists map[int]*seqListArena

	lstmCaches    structArena[lstmCache]
	denseCaches   structArena[denseCache]
	dropoutCaches structArena[dropoutCache]
	batchSeqs     structArena[BatchSeq]

	// predictCtx is the reusable Context for PredictBatchWS: handing the
	// same *Context to every interface call keeps it off the per-call
	// heap.
	predictCtx Context
}

// NewWorkspace returns an empty workspace. Buffers are created on demand
// and reused after Reset.
func NewWorkspace() *Workspace {
	return &Workspace{
		heads:    make(map[int]*headArena),
		anys:     make(map[int]*anyArena),
		mats:     make(map[matKey]*matArena),
		matLists: make(map[int]*matListArena),
		seqLists: make(map[int]*seqListArena),
	}
}

// Reset recycles every buffer handed out since the previous Reset. All
// workspace-backed slices obtained before the call become scratch again
// and must not be read or written by their previous holders.
func (w *Workspace) Reset() {
	for _, a := range w.heads {
		a.n = 0
	}
	for _, a := range w.anys {
		a.n = 0
	}
	for _, a := range w.mats {
		a.n = 0
	}
	for _, a := range w.matLists {
		a.n = 0
	}
	for _, a := range w.seqLists {
		a.n = 0
	}
	w.lstmCaches.reset()
	w.denseCaches.reset()
	w.dropoutCaches.reset()
	w.batchSeqs.reset()
}

// headArena pools [][]float64 header slices of one length.
type headArena struct {
	bufs [][][]float64
	n    int
}

// anyArena pools []any header slices of one length (per-layer cache lists).
type anyArena struct {
	bufs [][]any
	n    int
}

// matKey identifies a matrix arena by shape.
type matKey struct{ rows, cols int }

// matArena pools *mat.Matrix buffers of one shape (batch panels).
type matArena struct {
	bufs []*mat.Matrix
	n    int
}

// matListArena pools []*mat.Matrix header slices of one length (the Steps
// slices of batch sequences).
type matListArena struct {
	bufs [][]*mat.Matrix
	n    int
}

// seqListArena pools []Seq header slices of one length (per-sample view
// lists returned by PredictBatchWS).
type seqListArena struct {
	bufs [][]Seq
	n    int
}

// structArena pools typed cache structs so ForwardBatch can hand out *T
// values without allocating. Recycled structs keep their field values; callers
// must reassign every field.
type structArena[T any] struct {
	items []*T
	n     int
}

func (a *structArena[T]) get() *T {
	if a.n == len(a.items) {
		a.items = append(a.items, new(T))
	}
	v := a.items[a.n]
	a.n++
	return v
}

func (a *structArena[T]) reset() { a.n = 0 }

// headsOut returns a [][]float64 of length n with unspecified contents;
// callers must assign every element.
func (w *Workspace) headsOut(n int) [][]float64 {
	a := w.heads[n]
	if a == nil {
		a = &headArena{}
		w.heads[n] = a
	}
	if a.n == len(a.bufs) {
		a.bufs = append(a.bufs, make([][]float64, n))
	}
	b := a.bufs[a.n]
	a.n++
	return b
}

// anyList returns a []any of length n with unspecified contents; callers
// must assign every element.
func (w *Workspace) anyList(n int) []any {
	a := w.anys[n]
	if a == nil {
		a = &anyArena{}
		w.anys[n] = a
	}
	if a.n == len(a.bufs) {
		a.bufs = append(a.bufs, make([]any, n))
	}
	b := a.bufs[a.n]
	a.n++
	return b
}

// wsHeads returns an n-element [][]float64 header slice from ws (contents
// unspecified), or a fresh allocation when ws is nil.
func wsHeads(ws *Workspace, n int) [][]float64 {
	if ws == nil {
		return make([][]float64, n)
	}
	return ws.headsOut(n)
}

// wsAnys returns an n-element []any from ws (contents unspecified), or a
// fresh allocation when ws is nil.
func wsAnys(ws *Workspace, n int) []any {
	if ws == nil {
		return make([]any, n)
	}
	return ws.anyList(n)
}

// matRaw returns an r×c matrix with unspecified contents, for panels whose
// every element the caller overwrites before reading.
func (w *Workspace) matRaw(r, c int) *mat.Matrix {
	key := matKey{r, c}
	a := w.mats[key]
	if a == nil {
		a = &matArena{}
		w.mats[key] = a
	}
	if a.n == len(a.bufs) {
		a.bufs = append(a.bufs, mat.NewMatrix(r, c))
	}
	m := a.bufs[a.n]
	a.n++
	return m
}

// matZero returns a zeroed r×c matrix.
func (w *Workspace) matZero(r, c int) *mat.Matrix {
	m := w.matRaw(r, c)
	clear(m.Data)
	return m
}

// matList returns an n-element []*mat.Matrix with unspecified contents;
// callers must assign every element.
func (w *Workspace) matList(n int) []*mat.Matrix {
	a := w.matLists[n]
	if a == nil {
		a = &matListArena{}
		w.matLists[n] = a
	}
	if a.n == len(a.bufs) {
		a.bufs = append(a.bufs, make([]*mat.Matrix, n))
	}
	l := a.bufs[a.n]
	a.n++
	return l
}

// seqList returns an n-element []Seq with unspecified contents; callers
// must assign every element.
func (w *Workspace) seqList(n int) []Seq {
	a := w.seqLists[n]
	if a == nil {
		a = &seqListArena{}
		w.seqLists[n] = a
	}
	if a.n == len(a.bufs) {
		a.bufs = append(a.bufs, make([]Seq, n))
	}
	l := a.bufs[a.n]
	a.n++
	return l
}

// wsMatRaw returns an r×c matrix with unspecified contents from ws, or a
// fresh (zeroed) allocation when ws is nil.
func wsMatRaw(ws *Workspace, r, c int) *mat.Matrix {
	if ws == nil {
		return mat.NewMatrix(r, c)
	}
	return ws.matRaw(r, c)
}

// wsMatZero returns a zeroed r×c matrix from ws, or a fresh allocation
// when ws is nil.
func wsMatZero(ws *Workspace, r, c int) *mat.Matrix {
	if ws == nil {
		return mat.NewMatrix(r, c)
	}
	return ws.matZero(r, c)
}

// wsMatList returns an n-element []*mat.Matrix from ws (contents
// unspecified), or a fresh allocation when ws is nil.
func wsMatList(ws *Workspace, n int) []*mat.Matrix {
	if ws == nil {
		return make([]*mat.Matrix, n)
	}
	return ws.matList(n)
}
