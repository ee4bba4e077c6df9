(** The vectorized execution engine: compiles BALG expressions to
    loop-free kernels over {!Vec} segmented flat vectors, falling back to
    the tree evaluator's data path per subtree when a node or a value does
    not fit the columnar layout ([Powerset]/[Powerbag], [Fix]/[BFix],
    heterogeneous bags) — so every query runs end-to-end under either
    engine.

    Every node runs inside the {!Harness} wrapper shared with {!Eval}, so
    fuel, verdicts, {!Telemetry} and {!Obs} events follow the same code
    path.  The engine's own are a [vec.alloc] {!Fault} site at kernel
    allocation points and {!Pool} chunking over contiguous column
    slices.  Results are bit-identical to {!Eval} — same canonical
    {!Value.t} including multiplicities and hash tags (the differential
    suite in [test/test_veval.ml]).

    Fuel differs from the tree engine in {e amount} (vec charges per
    materialised row batch, tree per distinct element), but both engines
    enforce the same support / count-digit / fixpoint budgets, so a query
    that exhausts a tight budget under one engine exhausts it under the
    other. *)

(** {1 Engine selection} *)

type engine = Tree | Vec

val engine_to_string : engine -> string

val engine_of_string : string -> engine option
(** Recognises ["tree"] and ["vec"] (case-insensitive). *)

val default_engine : unit -> engine
(** [Vec] when the [BALG_ENGINE] environment variable is set to [vec],
    [Tree] otherwise — the override honoured by the test suite's CI leg. *)

(** {1 Execution plans}

    Which engine ran each subtree: every compiled node carries a label —
    [vec:<kernel>] when the columnar kernel ran, [tree] when the node
    compiles to the tree data path, and [tree (fallback)] when a vec
    kernel was planned but demoted at runtime (unsupported shape). *)

type plan = {
  p_id : int;  (** preorder node id, shared with telemetry/budget *)
  p_op : string;  (** operator label ({!Expr.op_name}) *)
  mutable p_engine : string;
  mutable p_children : plan list;  (** in syntactic order *)
}

val plan_to_string : plan -> string

(** {1 Entry points}

    Mirrors of {!Eval.run} / {!Eval.eval}: same optional machinery, same
    result and exception contract. *)

val run :
  ?budget:Budget.t ->
  ?limits:Budget.limits ->
  ?meters:Eval.meters ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  ?report:(plan -> unit) ->
  Eval.env ->
  Expr.t ->
  (Value.t, Budget.exhaustion) result
(** [?report] receives the executed plan on every exit path — ok,
    verdict, or exception — after engine labels are final. *)

val eval :
  ?config:Eval.config ->
  ?meters:Eval.meters ->
  ?pool:Pool.t ->
  Eval.env ->
  Expr.t ->
  Value.t
(** @raise Eval.Resource_limit on exhaustion, like {!Eval.eval}. *)

(** {1 Dispatch}

    One call site for both engines, so tests and tools honour
    [BALG_ENGINE] / [--engine] with a single switch. *)

val run_engine :
  engine ->
  ?budget:Budget.t ->
  ?limits:Budget.limits ->
  ?meters:Eval.meters ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  Eval.env ->
  Expr.t ->
  (Value.t, Budget.exhaustion) result

val eval_engine :
  engine ->
  ?config:Eval.config ->
  ?meters:Eval.meters ->
  ?pool:Pool.t ->
  Eval.env ->
  Expr.t ->
  Value.t
