(** The evaluation harness shared by both engines.

    {!Eval} and {!Veval} differ only in their data representation and
    their [compile_node]; every compiled node of either engine runs inside
    this module's wrapper, which charges fuel at the single {!spend}
    point, observes the result against the {!Budget}, and records it in
    {!Telemetry} spans and {!Obs} trace events.  {!run} is the common run
    entry: run id, run span, metrics and the outcome match that turns
    budget exhaustion and injected faults into structured verdicts. *)

type meters = {
  mutable max_support_seen : int;
  mutable max_count_seen : Bignat.t;
  mutable max_cardinal_seen : Bignat.t;
  mutable ops : int;
  mutable memo_hits : int;
      (** stable subexpressions answered from the memo table *)
  mutable memo_misses : int;
      (** memoisable subexpressions that had to be computed *)
}

val fresh_meters : unit -> meters

(** The governor state of one run on one domain.  The tree engine copies
    it per parallel task (fresh meters, cell and shard); the budget is
    shared. *)
type state = {
  budget : Budget.t;
  meters : meters;
  run_id : int;
  telemetry : Telemetry.t option;
  shard : Telemetry.shard option;
      (** [Some] inside a parallel task, whose records merge at the join *)
  pool : Pool.t option;
  mutable obs_cell : int ref;
      (** fuel charged to the currently executing traced node *)
}

(** Attribution of one compiled node: preorder id, {!Expr.op_name} label,
    and its telemetry span when a sink is attached. *)
type att = { id : int; op : string; sp : Telemetry.span option }

type reg
(** A compilation's node counter and telemetry sink. *)

val registry : Telemetry.t option -> reg

val attribute : reg -> parent:int -> Expr.t -> att
(** Number the next compiled node in preorder (ids start at 1) and
    register its span under [parent] (0 for a root). *)

val span_of : state -> att -> Telemetry.span -> Telemetry.span
(** The span to record into: the registered span, or its counterpart in
    the state's shard. *)

val spend : state -> att -> int -> unit
(** Charge fuel to the node, mirrored into its span and the trace cell
    before the charge can raise, so steps == fuel holds on every path.
    Hosts the [eval.step] fault site.
    @raise Budget.Budget_exceeded *)

val observe_value : state -> att -> Value.t -> Value.t
(** Meter a boxed result, enforce the support, count-digit and size
    accounts, charge fuel for its support, and return it. *)

val too_large : state -> att -> 'a
(** A located [Support] verdict for an output beyond [int] range. *)

val power_guard : state -> att -> Value.t -> unit
(** Charge and bound a power operator's expected output before it is
    materialised. *)

val node :
  att ->
  observe:(state -> att -> 'v -> 'v) ->
  (state -> 'env -> 'v) ->
  state ->
  'env ->
  'v
(** [node att ~observe raw] wraps a compiled node: one unit of fuel per
    invocation, one count in [meters.ops] and [observe] on the result,
    inclusive time and allocation in the span when one is attached, and
    balanced begin/end trace events carrying the node's self-steps when
    capture is on. *)

val iterate :
  state ->
  att ->
  bound:Value.t option ->
  step:(Value.t -> Value.t) ->
  Value.t ->
  Value.t
(** Inflationary fixpoint X ↦ (step X ∪ X) [∩ bound] from a seed, under
    the fixpoint-step and deadline accounts. *)

(** {1 Runs} *)

type family
(** One engine's run-id counter and [/metrics] family. *)

val family :
  prefix:string ->
  noun:string ->
  ?run_args:(string * Obs.arg) list ->
  ?peak_support:bool ->
  unit ->
  family
(** Registers [<prefix>_runs_total], [_ok_total], [_verdicts_total],
    [_fuel], [_run_ns] and, with [~peak_support:true], [_peak_support];
    [run_args] are appended to every run's begin event. *)

val budget : ?budget:Budget.t -> ?limits:Budget.limits -> unit -> Budget.t
(** The run's account: [budget] if given, else a fresh one under [limits]
    (default {!Budget.default}). *)

val run :
  family ->
  budget:Budget.t ->
  ?meters:meters ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  size:int ->
  (state -> 'v) ->
  ('v, Budget.exhaustion) result
(** Run a compiled expression of the given size under a fresh state.
    Budget exhaustion and {!Fault.Injected} return as [Error]; any other
    exception propagates.  Every path closes the run span, emits the
    [done] instant and records the family's metrics. *)
