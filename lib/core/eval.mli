(** The reference interpreter: exact §3 semantics under a {!Budget}
    governor.

    The algebra deliberately contains queries of arbitrarily high
    hyper-exponential complexity (Prop 3.2, Thm 5.5), so evaluation runs
    under configurable resource limits — step fuel, per-bag support,
    encoded size, multiplicity digits, fixpoint steps, wall-clock deadline
    — checked at every compiled-closure boundary.  {!run} reports
    exhaustion as a structured [Error] locating the node that ran dry;
    the legacy {!eval} raises {!Resource_limit} instead.  {!meters} record
    the largest intermediate support, multiplicity and cardinality seen —
    the observable the complexity experiments measure — and an optional
    {!Telemetry.t} sink collects a per-operator span tree. *)

exception Eval_error of string

exception Resource_limit of string
(** Raised by the legacy {!eval} wrapper; {!run} never raises it. *)

type config = {
  max_support : int;  (** bound on distinct elements per bag *)
  max_count_digits : int;  (** bound on decimal digits of any multiplicity *)
  max_fix_steps : int;  (** bound on fixpoint iterations *)
}

val default_config : config

val limits_of_config : config -> Budget.limits
(** The legacy three-knob guard as governor limits (fuel, size and
    deadline unlimited). *)

type meters = Harness.meters

val fresh_meters : unit -> meters

module Env : Map.S with type key = string

type env = Value.t Env.t

val env_of_list : (string * Value.t) list -> env

val run :
  ?budget:Budget.t ->
  ?limits:Budget.limits ->
  ?meters:meters ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  env ->
  Expr.t ->
  (Value.t, Budget.exhaustion) result
(** Governed evaluation.  A pre-started [?budget] takes precedence over
    [?limits] (pass one to inspect {!Budget.fuel_spent} afterwards);
    with neither, {!Budget.default} applies.  Budget exhaustion — including
    what used to surface as the ad-hoc [Bag.Too_large] — returns as a
    located [Error]; no budget-related exception escapes.  The same holds
    for the two adversity channels: {!Budget.cancel} during evaluation
    returns a [Cancelled] verdict (checked at every fuel charge, on every
    domain), and a firing {!Fault} injection site — [eval.step],
    [bag.alloc], [pool.task] — returns an [Injected] verdict naming the
    site, located at the charging node when the evaluator can attribute
    it.  The only exception [run] raises is {!Eval_error} (a dynamic type
    error or unbound variable: caller bugs, not resource adversity).

    With [?pool], large kernels chunk their support across the pool's
    domains and substantial independent binary-operator branches fork:
    results are identical to sequential evaluation (chunks of a canonical
    bag recombine canonically), the shared budget still cuts off at the
    same total spend, telemetry shards merge at every join (preserving the
    steps == fuel invariant), and an exhaustion verdict is reported at the
    smallest exhausting node id for determinism.
    @raise Eval_error on dynamic type errors or unbound variables. *)

val eval :
  ?config:config -> ?meters:meters -> ?pool:Pool.t -> env -> Expr.t -> Value.t
(** Legacy entry point: {!run} under {!limits_of_config}.
    @raise Eval_error on dynamic type errors or unbound variables.
    @raise Resource_limit when the governor trips. *)

val truthy : Value.t -> bool
(** The boolean convention of the paper's example queries: a bag result is
    true iff nonempty.  @raise Eval_error on non-bag values. *)
