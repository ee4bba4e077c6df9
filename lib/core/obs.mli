(** Session-wide observability: a low-overhead trace-event core with
    Chrome/Perfetto and JSONL exporters.

    One event core feeds every surface.  When tracing is {e enabled},
    instrumented modules ({!Eval}, {!Rewrite}, {!Pool}, {!Budget},
    {!Fault}, [Bagdb], the balgd server stack) emit begin/end and instant
    events — operator name, node id, fuel steps, verdicts, fault hits,
    request lifecycle — into {e per-domain} ring-buffer sinks.  Each ring
    belongs to one domain; a per-ring mutex makes the append atomic for
    the systhreads (balgd sessions, the replication feed) that share
    domain 0's ring, and is uncontended on single-threaded worker
    domains.  Rings have fixed capacity and drop the {e oldest} events on
    overflow, counting what they dropped — the hot path never blocks on
    capacity and never allocates beyond the event itself.

    {b Disarmed cost.}  Every emission call site is guarded by {!on}
    (one [Atomic.get] + branch, the same discipline as {!Fault.armed});
    [scripts/lint.sh] rejects call sites without the same-line guard, so
    a run without [--trace-out] pays nothing for the instrumentation.

    {b Timestamps} are microseconds since {!enable}, clamped to be
    non-decreasing per ring — so per-[tid] monotonicity is an exported
    invariant ([scripts/check_trace.sh] verifies it), immune to the odd
    wall-clock step.

    {b Trace ids.}  Every evaluation gets a trace id ({!set_trace_id},
    wired to the engine's run id); events record it as the Chrome [pid], and
    the emitting domain as the [tid] — in Perfetto a traced [--jobs N]
    run renders as one process with a lane per domain.  A long-lived
    server instead {e pins} one trace id ({!pin_trace_id}) so concurrent
    evaluations can't flip the process id mid-span, and distinguishes
    requests by a [("req", Int id)] argument on every request-scoped
    span; sessions claim synthetic lanes ({!lane_session},
    {!lane_repl}) via [emit ~tid] so each session renders as its own
    thread track.

    Exports read the rings {e after} the work has joined (the CLI writes
    files once the pool is shut down); reading while domains still emit
    is safe but can see a torn tail. *)

(** {1 The event core} *)

type ph = B  (** span begin *) | E  (** span end *) | I  (** instant *)

type arg = Int of int | Str of string | Float of float

type event = {
  ts : float;  (** microseconds since {!enable}, non-decreasing per tid *)
  pid : int;  (** trace id of the evaluation (Chrome "process") *)
  tid : int;  (** emitting domain id (Chrome "thread") *)
  ph : ph;
  cat : string;  (** subsystem: "eval", "rewrite", "pool", ... *)
  name : string;
  args : (string * arg) list;
}

val on : unit -> bool
(** True iff tracing is enabled.  One [Atomic.get]; guard every emission
    call site with it, on the same line. *)

val enable : ?capacity:int -> unit -> unit
(** Start capturing: discards previously captured events and installs
    fresh per-domain rings of [capacity] events each (default 65536,
    rounded up to a power of two). *)

val disable : unit -> unit
(** Stop capturing.  Captured events remain readable for export. *)

val reset : unit -> unit
(** Discard captured events without changing the enabled state. *)

val set_trace_id : int -> unit
(** Tag subsequent events with this trace (run) id.  A no-op while a
    trace id is pinned ({!pin_trace_id}). *)

val pin_trace_id : int -> unit
(** Set the trace id and make later {!set_trace_id} calls no-ops, so a
    server hosting concurrent evaluations keeps one stable Chrome [pid]
    for the whole capture.  {!enable} clears the pin. *)

val trace_id : unit -> int

val now_us : unit -> float
(** The current capture clock: microseconds since {!enable}.  Lets a
    caller note wall-clock points (enqueue, dequeue) and later emit a
    retro-dated span via [emit ~ts_us]. *)

val lane_session : int -> int
(** Synthetic [tid] for a server session's lane (10000 + session id). *)

val lane_repl : int
(** Synthetic [tid] for the replication feed's lane. *)

val emit :
  ?pid:int ->
  ?tid:int ->
  ?ts_us:float ->
  ?args:(string * arg) list ->
  cat:string ->
  name:string ->
  ph ->
  unit
(** Append one event to the calling domain's ring.  No-op when disabled
    (but call sites must still guard with {!on} so the args list is never
    built).  Never blocks on capacity; overwrites the oldest event when
    full.  [?pid]/[?tid] override the trace id and lane (the event still
    lands in the calling domain's ring); [?ts_us] supplies an explicit
    timestamp on the {!now_us} clock — still clamped to the ring's
    monotonic floor, so a retro-dated span stays ordered within its
    ring. *)

val json_escape : string -> string
(** JSON string-body escaping as used by the exporters, shared so other
    JSONL writers (balgd's access and slow-query logs) stay consistent. *)

val events : unit -> event list
(** Captured events, grouped by tid (ascending), in emission order within
    each tid; oldest-dropped events are gone. *)

val dropped : unit -> int
(** Total events lost to ring overflow since {!enable}/{!reset}. *)

(** {1 Exporters} *)

module Trace : sig
  val to_chrome : out_channel -> unit
  (** Chrome trace-event JSON (one event object per line, loadable in
      Perfetto / [chrome://tracing]): [ph] B/E/I, [ts] in microseconds,
      [pid] = trace id, [tid] = domain, plus [thread_name] metadata per
      (pid, tid) lane and an [otherData.droppedEvents] count. *)

  val to_chrome_json : unit -> string
end

module Log : sig
  val to_jsonl : out_channel -> unit
  (** The same captured events as structured JSONL: one flat JSON object
      per line ([ts_us], [pid], [tid], [ph], [cat], [name], then the
      event args), for [jq]-style processing and log shipping. *)

  val to_jsonl_string : unit -> string
end

module Metrics = Metrics
(** The metrics registry rides alongside the event core; see
    {!module:Metrics}. *)
