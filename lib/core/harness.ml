(** The evaluation harness shared by the tree engine ({!Eval}) and the vec
    engine ({!Veval}): everything a compiled node does besides computing
    its result.  An engine supplies its data representation and its
    [compile_node]; the harness owns the governor state, fuel charging,
    boxed-value observation, the power-operator pre-charge, the per-node
    {!Telemetry} and {!Obs} wrapper, inflationary fixpoint iteration and
    the run entry. *)

type meters = {
  mutable max_support_seen : int;
  mutable max_count_seen : Bignat.t;
  mutable max_cardinal_seen : Bignat.t;
  mutable ops : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

let fresh_meters () =
  {
    max_support_seen = 0;
    max_count_seen = Bignat.zero;
    max_cardinal_seen = Bignat.zero;
    ops = 0;
    memo_hits = 0;
    memo_misses = 0;
  }

type state = {
  budget : Budget.t;  (** shared across domains; accounts are atomic *)
  meters : meters;  (** owned by this state; merged at parallel joins *)
  run_id : int;  (** keys the tree engine's per-domain memo tables *)
  telemetry : Telemetry.t option;  (** the sink, when one is attached *)
  shard : Telemetry.shard option;
      (** [Some] inside a parallel task: records land in the task's own
          shard and merge into the parent at the join *)
  pool : Pool.t option;
  mutable obs_cell : int ref;
      (** fuel charged to the {e currently executing} node, for the trace
          exporter: each traced node invocation installs a fresh cell and
          its end event reports the cell's total, so summing the [steps]
          arg over all end events reproduces the spent fuel exactly (the
          trace-side mirror of the telemetry steps == fuel invariant).
          The cell is dynamically scoped — states are domain-private, so
          a plain ref suffices. *)
}

(* Attribution of one compiled node: its preorder id, operator label, and
   (when a sink is attached) its telemetry span. *)
type att = { id : int; op : string; sp : Telemetry.span option }

type reg = { ctr : int ref; telemetry : Telemetry.t option }

let registry telemetry = { ctr = ref 0; telemetry }

let attribute reg ~parent e =
  incr reg.ctr;
  let id = !(reg.ctr) in
  let op = Expr.op_name e in
  let sp =
    match reg.telemetry with
    | Some t -> Some (Telemetry.register t ~parent ~id ~op)
    | None -> None
  in
  { id; op; sp }

(* The span to record into for this state: the registered tree span on the
   main domain, the task's shard span inside a parallel task. *)
let span_of st att sp_main =
  match st.shard with
  | None -> sp_main
  | Some sh -> Telemetry.shard_span sh ~id:att.id ~op:att.op

(* Injection site (see fault.mli): a fault at the evaluator's fuel-charge
   boundary — the finest-grained place evaluation can die — published as a
   located [Injected] verdict at the charging node.  The check precedes
   the telemetry mirror so a firing site records no steps it did not pay
   fuel for. *)
let step_site = Fault.register "eval.step"

(* Every unit of fuel charged to the governor is mirrored into the node's
   span (or its shard counterpart), so the span tree's total step count
   always equals the spent fuel after shards merge (the --stats invariant,
   tested in test_budget.ml and test_parallel.ml). *)
let spend st att n =
  if Fault.fire step_site then
    Budget.exceeded st.budget Budget.Injected ~node:att.id
      ~op:(Fault.name step_site)
      ~spent:(Budget.fuel_spent st.budget) ~limit:0;
  (match att.sp with
  | Some sp -> Telemetry.add_steps (span_of st att sp) n
  | None -> ());
  (* Mirror into the trace accumulator before [charge] can raise, for the
     same reason the telemetry mirror precedes it: the charge that trips
     the account must still appear in the exported steps. *)
  st.obs_cell := !(st.obs_cell) + n;
  Budget.charge st.budget ~node:att.id ~op:att.op n

let observe_value st att v =
  let m = st.meters in
  match Value.view v with
  | Value.Bag pairs ->
      (* One walk for all three measures; the cardinal stays in machine
         arithmetic until a count (or the sum) leaves [int] range. *)
      let support = ref 0 in
      let mc = ref Bignat.zero in
      let icard = ref 0 in
      List.iter
        (fun (_, c) ->
          incr support;
          if Bignat.compare c !mc > 0 then mc := c;
          if !icard >= 0 then
            icard :=
              (match Bignat.to_int_opt c with
              | Some n ->
                  let s = !icard + n in
                  if s < 0 then -1 else s
              | None -> -1))
        pairs;
      let support = !support and mc = !mc in
      if support > m.max_support_seen then m.max_support_seen <- support;
      Budget.check_support st.budget ~node:att.id ~op:att.op support;
      if Bignat.compare mc m.max_count_seen > 0 then begin
        m.max_count_seen <- mc;
        Budget.check_count_digits st.budget ~node:att.id ~op:att.op
          (Bignat.digits mc)
      end;
      let card =
        if !icard >= 0 then Bignat.of_int !icard else Value.cardinal v
      in
      if Bignat.compare card m.max_cardinal_seen > 0 then
        m.max_cardinal_seen <- card;
      let size = Value.size_tag v in
      Budget.check_size st.budget ~node:att.id ~op:att.op size;
      (match att.sp with
      | Some sp -> Telemetry.record_result (span_of st att sp) ~support ~size
      | None -> ());
      spend st att support;
      v
  | Value.Atom _ | Value.Tuple _ ->
      let size = Value.size_tag v in
      Budget.check_size st.budget ~node:att.id ~op:att.op size;
      (match att.sp with
      | Some sp -> Telemetry.record_result (span_of st att sp) ~support:0 ~size
      | None -> ());
      v

(* An expected output beyond [int] range (reported as a saturated
   [max_int]) is impossible to materialise whatever the limits: a located
   [Support] verdict, the structured replacement for the old ad-hoc
   [Bag.Too_large] escape. *)
let too_large st att =
  let limit = (Budget.limits st.budget).Budget.max_support in
  Budget.exceeded st.budget Budget.Support ~node:att.id ~op:att.op
    ~spent:max_int ~limit

(* Charge a power operator for its expected output before materialising
   anything: a hyper-exponential [P(P(...))] tower dies here, on the fuel
   or support account, without allocating the intermediate bag.  After
   this guard passes, the (unguarded) kernel cannot overflow. *)
let power_guard st att b =
  let n = Bag.expected_subbags b in
  if n = max_int then too_large st att;
  Budget.check_deadline st.budget ~node:att.id ~op:att.op;
  Budget.check_support st.budget ~node:att.id ~op:att.op n;
  spend st att n

let node att ~observe raw =
  let invoke =
    match att.sp with
    | None ->
        fun st env ->
          spend st att 1;
          let v = raw st env in
          st.meters.ops <- st.meters.ops + 1;
          observe st att v
    | Some sp_main ->
        (* Inclusive wall time and allocation per span; only paid when a
           telemetry sink is attached.  The span is resolved per call: the
           registered tree span on the main domain, the task shard inside
           a parallel region. *)
        fun st env ->
          spend st att 1;
          let sp = span_of st att sp_main in
          sp.Telemetry.invocations <- sp.Telemetry.invocations + 1;
          let t0 = Unix.gettimeofday () in
          let a0 = Gc.allocated_bytes () in
          let finish () =
            sp.Telemetry.time_s <-
              sp.Telemetry.time_s +. (Unix.gettimeofday () -. t0);
            sp.Telemetry.alloc_words <-
              sp.Telemetry.alloc_words
              +. ((Gc.allocated_bytes () -. a0)
                 /. float (Sys.word_size / 8))
          in
          (match raw st env with
          | v ->
              finish ();
              st.meters.ops <- st.meters.ops + 1;
              observe st att v
          | exception exn ->
              finish ();
              raise exn)
  in
  (* Trace events per invocation, only when capture is on: a begin event,
     a fresh self-steps cell for the duration, and an end event carrying
     the fuel this node (not its children) charged — balanced on the
     exception path too, so an exhausted or faulted run still exports a
     well-formed trace.  Disarmed cost: the one [Obs.on] load + branch. *)
  let { id; op; _ } = att in
  fun st env ->
    if not (Obs.on ()) then invoke st env
    else begin
      if Obs.on () then Obs.emit Obs.B ~cat:"eval" ~name:op ~args:[ ("node", Obs.Int id) ];
      let saved = st.obs_cell in
      let cell = ref 0 in
      st.obs_cell <- cell;
      let close () =
        st.obs_cell <- saved;
        if Obs.on () then Obs.emit Obs.E ~cat:"eval" ~name:op ~args:[ ("node", Obs.Int id); ("steps", Obs.Int !cell) ]
      in
      match invoke st env with
      | v ->
          close ();
          v
      | exception exn ->
          close ();
          raise exn
    end

(* Inflationary iteration: X ↦ (body(X) ∪ X) [∩ bound].  With a bound the
   chain is increasing and bounded, hence terminating; without one the step
   budget applies (BALG + IFP is Turing complete, Thm 6.6).  The stability
   check benefits from the hash tags: unequal iterates refute in O(1). *)
let iterate st att ~bound ~step current =
  let clamp v = match bound with None -> v | Some b -> Bag.inter v b in
  let rec go steps current =
    Budget.check_fix_steps st.budget ~node:att.id ~op:att.op steps;
    Budget.check_deadline st.budget ~node:att.id ~op:att.op;
    let next = clamp (Bag.union_max (step current) current) in
    if Value.equal next current then current else go (steps + 1) next
  in
  go 0 (clamp current)

(* ------------------------------------------------------------------ *)
(* Runs. *)

type family = {
  run_ids : int Atomic.t;
  run_args : (string * Obs.arg) list;
  m_runs : Metrics.counter;
  m_ok : Metrics.counter;
  m_verdicts : Metrics.counter;
  m_fuel : Metrics.histogram;
  m_run_ns : Metrics.histogram;
  m_peak_support : Metrics.histogram option;
}

let family ~prefix ~noun ?(run_args = []) ?(peak_support = false) () =
  let counter name help =
    Metrics.counter Metrics.default (prefix ^ name) ~help
  in
  let histogram name help =
    Metrics.histogram Metrics.default (prefix ^ name) ~help
  in
  let nouns = String.capitalize_ascii noun ^ "s" in
  {
    run_ids = Atomic.make 1;
    run_args;
    m_runs = counter "_runs_total" (nouns ^ " started");
    m_ok = counter "_ok_total" (nouns ^ " that returned a value");
    m_verdicts =
      counter "_verdicts_total"
        (nouns ^ " that ended in a structured exhaustion verdict");
    m_fuel = histogram "_fuel" ("Fuel spent per " ^ noun);
    m_run_ns =
      histogram "_run_ns" ("Wall time per " ^ noun ^ " in nanoseconds");
    m_peak_support =
      (if peak_support then
         Some
           (histogram "_peak_support"
              ("Largest intermediate bag support per " ^ noun))
       else None);
  }

let budget ?budget ?limits () =
  match (budget, limits) with
  | Some b, _ -> b
  | None, Some l -> Budget.start l
  | None, None -> Budget.start Budget.default

(* Close the run's trace span and record its metrics — on every exit path,
   verdicts included: the final instant event carries the outcome and the
   spent fuel, which is what scripts/check_trace.sh reconciles against the
   per-node step counts. *)
let finish_run fam st t0 outcome_args =
  Metrics.observe fam.m_fuel (Budget.fuel_spent st.budget);
  Metrics.observe fam.m_run_ns
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
  (match fam.m_peak_support with
  | Some h -> Metrics.observe h st.meters.max_support_seen
  | None -> ());
  if Obs.on () then Obs.emit Obs.E ~cat:"eval" ~name:"run" ~args:[ ("steps", Obs.Int !(st.obs_cell)) ];
  if Obs.on () then Obs.emit Obs.I ~cat:"eval" ~name:"done" ~args:(("fuel", Obs.Int (Budget.fuel_spent st.budget)) :: outcome_args)

let verdict_args (x : Budget.exhaustion) =
  [
    ("outcome", Obs.Str "verdict");
    ("resource", Obs.Str (Budget.resource_to_string x.Budget.resource));
    ("node", Obs.Int x.Budget.at_node);
    ("op", Obs.Str x.Budget.op);
  ]

let run fam ~budget ?meters ?telemetry ?pool ~size exec =
  let meters = match meters with Some m -> m | None -> fresh_meters () in
  let st =
    {
      budget;
      meters;
      run_id = Atomic.fetch_and_add fam.run_ids 1;
      telemetry;
      shard = None;
      pool;
      obs_cell = ref 0;
    }
  in
  Metrics.incr fam.m_runs;
  let t0 = Unix.gettimeofday () in
  if Obs.on () then Obs.set_trace_id st.run_id;
  if Obs.on () then Obs.emit Obs.B ~cat:"eval" ~name:"run" ~args:(("run", Obs.Int st.run_id) :: ("size", Obs.Int size) :: fam.run_args);
  match exec st with
  | v ->
      Metrics.incr fam.m_ok;
      finish_run fam st t0 [ ("outcome", Obs.Str "ok") ];
      Ok v
  | exception Budget.Budget_exceeded x ->
      (* Under parallel evaluation the propagated exception is whichever
         domain's raise won the race; the published verdict is kept at the
         smallest node id, so report that one. *)
      let x = match Budget.verdict budget with Some y -> y | None -> x in
      Metrics.incr fam.m_verdicts;
      finish_run fam st t0 (verdict_args x);
      Error x
  | exception Fault.Injected site ->
      (* An injected failure below the evaluator's attribution (a kernel
         allocation point, a pool task): structured verdict at node 0 —
         "before/outside any node" — carrying the site name.  The faults
         the evaluator can locate (eval.step) arrive as Budget_exceeded
         above instead. *)
      let x =
        { Budget.resource = Budget.Injected; at_node = 0; op = site;
          spent = 0; limit = 0 }
      in
      Metrics.incr fam.m_verdicts;
      finish_run fam st t0 (verdict_args x);
      Error x
  | exception exn ->
      (* A caller bug (Eval_error, ...) still closes the trace span before
         propagating, so the export stays balanced. *)
      finish_run fam st t0 [ ("outcome", Obs.Str "exception") ];
      raise exn
