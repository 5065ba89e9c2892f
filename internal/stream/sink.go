package stream

// Sink is a pluggable consumer of the engine's window results: every
// emitted WindowResult is handed to each configured Sink, in window order,
// from the sequencer goroutine, before the result is published on the
// output channel. By the time a reader of the Start channel sees a window,
// every sink has already consumed it.
//
// internal/store implements Sink to persist lineage state; a metrics
// shipper or alerting hook are other natural implementations.
//
// Contract:
//   - Consume is called sequentially (never concurrently) in window order.
//   - The WindowResult and everything reachable from it (report, deltas,
//     matches) must be treated as read-only: the same values are published
//     to the output channel.
//   - Consume blocks the emit path, so a slow sink backpressures the
//     engine exactly like a slow channel consumer.
//   - A Consume error is recorded as the engine error (first error wins)
//     but does not stop the stream: detection output is still valid even
//     when durability is failing, and Err surfaces the fault at exit.
type Sink interface {
	Consume(w *WindowResult) error
}

// NamedSink is an optional Sink refinement: a sink that names itself gets
// its own consume-latency histogram series and lifecycle span ("store"
// for the durable store, "forward" for the cluster forwarder) instead of
// the generic "sink" label.
type NamedSink interface {
	Sink
	// SinkName returns a short stable label for spans and metric labels.
	SinkName() string
}

// sinkName labels a sink for spans and metrics.
func sinkName(s Sink) string {
	if n, ok := s.(NamedSink); ok {
		return n.SinkName()
	}
	return "sink"
}
