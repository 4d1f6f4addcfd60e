package nn

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// GradQueue moves Linear layers' weight gradients off a backward pass's
// critical path. Only dx = g·Wᵀ feeds the layer below; dW = xᵀ·g and the
// bias sums read the cached input and the incoming gradient, and nothing in
// the backward waits for them. A Linear with a running queue attached
// therefore posts (layer, g) and goes on to dx, and the queue's worker —
// another goroutine — runs the posted tasks in order.
//
// The bits cannot move: a task is Linear's own parameter update, dW summed
// from +0 and then added to W's gradient and g's rows added to b's in index
// order, and each Param has one writer, the goroutine that runs its layer's
// task. dx never reads a gradient.
//
// One goroutine, the walk, calls Start, posts through Linear.Backward, and
// calls Close and Finish; another calls Work between Start and Finish. The
// walk owns the training arena: a task's g goes back to it only after the
// worker has reported the task done, through a second Ready. Without a
// running queue — none attached, or outside Start … Close — a Linear runs
// everything inline.
type GradQueue struct {
	tasks  []gradTask // fixed for a run: the worker reads what the walk posts
	n      int        // tasks posted this run
	put    int        // tasks whose gradient the walk has returned to its arena
	on     bool       // between Start and Close
	posted parallel.Ready
	done   parallel.Ready

	// The worker's own: dW's scratch (the arena is the walk's) and the
	// first task error, which Finish returns.
	dW  tensor.Matrix
	err error
}

// gradTask is one Linear's parameter update: g is the gradient of its
// output, and its cached input stays put until the next train Forward.
type gradTask struct {
	l *Linear
	g *tensor.Matrix
}

// NewGradQueue returns a queue that holds up to capacity tasks a run; a
// Linear that finds it full runs inline.
func NewGradQueue(capacity int) *GradQueue {
	return &GradQueue{tasks: make([]gradTask, capacity)}
}

// GradQueueUser is implemented by layers that post their weight gradients to
// an attached GradQueue (Linear; Sequential recurses). Attaching nil detaches.
type GradQueueUser interface {
	SetGradQueue(q *GradQueue)
}

// AttachGradQueue sets q on every given layer that takes one.
func AttachGradQueue(q *GradQueue, layers ...Layer) {
	for _, l := range layers {
		if u, ok := l.(GradQueueUser); ok {
			u.SetGradQueue(q)
		}
	}
}

// Start begins a run: Linear layers post until Close.
func (q *GradQueue) Start() {
	q.posted.Reset()
	q.done.Reset()
	q.n, q.put, q.err, q.on = 0, 0, nil, true
}

// post hands Linear l's update to the worker and reports whether it took it.
// First it returns to their arenas the gradients of the tasks already done:
// not after, when the worker may have finished this one too, and its g —
// which the caller still reads for dx — would go back early.
func (q *GradQueue) post(l *Linear, g *tensor.Matrix) bool {
	if q == nil || !q.on || q.n == len(q.tasks) {
		return false
	}
	q.reclaim(q.done.Count())
	q.tasks[q.n] = gradTask{l: l, g: g}
	q.n++
	q.posted.Publish(q.n)
	return true
}

// reclaim returns the gradients of tasks [put, upTo) to their arenas.
func (q *GradQueue) reclaim(upTo int) {
	for ; q.put < upTo; q.put++ {
		t := &q.tasks[q.put]
		wsPut(t.l.arena, t.g)
		*t = gradTask{}
	}
}

// Close ends the run's posting: the worker runs what was posted and returns.
// The walk calls it on every path out, a panic's included.
func (q *GradQueue) Close() {
	q.on = false
	q.posted.Stop()
}

// Work is the worker: it runs the posted tasks in order until Close. A task
// error skips the rest, which are still reported done.
func (q *GradQueue) Work() {
	for i := 0; q.posted.Await(i); i++ {
		if q.err == nil {
			t := &q.tasks[i]
			q.err = t.l.paramGrads(q.scratch(t.l.W.Value), t.l.x, t.g)
		}
		q.done.Publish(i + 1)
	}
}

// scratch returns the worker's dW buffer shaped like w; its storage grows
// behind a capacity guard, so a steady run allocates nothing.
func (q *GradQueue) scratch(w *tensor.Matrix) *tensor.Matrix {
	n := w.Rows * w.Cols
	if cap(q.dW.Data) < n {
		q.dW.Data = make([]float32, n)
	}
	q.dW.Rows, q.dW.Cols, q.dW.Data = w.Rows, w.Cols, q.dW.Data[:n]
	return &q.dW
}

// Finish runs on the walk once the worker has returned: every gradient still
// lent goes back to its arena, the tasks a panicking worker never reached
// too, and the worker's first error is returned.
func (q *GradQueue) Finish() error {
	q.reclaim(q.n)
	return q.err
}
