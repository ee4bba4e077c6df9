(** The reference interpreter for BALG.

    Evaluation is exact: multiplicities are {!Bignat.t}s and every operator
    follows the §3 semantics literally.  Because the algebra can express
    queries of arbitrarily high hyper-exponential complexity (Prop 3.2,
    Thm 5.5), evaluation runs under a {!Budget} governor: step fuel,
    per-bag support, encoded-size and multiplicity-digit bounds, a fixpoint
    step bound and an optional wall-clock deadline, all checked at every
    compiled-closure boundary.  Exhaustion surfaces as a structured
    [Error (Budget.exhaustion)] from {!run}, locating the node where the
    account ran dry; the legacy {!eval} entry point converts it to the
    historical {!Resource_limit} exception.

    The expression is {e compiled} to a closure tree before evaluation.
    Each node runs inside the {!Harness} wrapper shared with {!Veval}
    (fuel, observation, telemetry, trace events); what is this engine's
    own is the boxed data path, the parallel regions, and the memo table:
    operator nodes whose free variables are all {e stable} (not bound by a
    MAP/σ binder applied per element, nor by a fixpoint binder that
    changes every iteration) are backed by a memo table keyed by (node id,
    fingerprint of the free-var bindings).  [Fix]/[BFix] iteration and
    repeated [Let]-bound subqueries then hit cache instead of
    re-evaluating; the meters record hit/miss counts.

    The evaluator also carries {e meters} recording the largest
    intermediate bag support and multiplicity seen; the complexity
    experiments (E10, E11, E15) read the growth shapes claimed by Theorems
    4.4, 5.1 and 6.2 off these meters. *)

exception Eval_error of string
exception Resource_limit of string

let error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

type config = {
  max_support : int;  (** bound on distinct elements per bag *)
  max_count_digits : int;  (** bound on decimal digits of any multiplicity *)
  max_fix_steps : int;  (** bound on fixpoint iterations *)
}

let default_config =
  { max_support = 2_000_000; max_count_digits = 10_000; max_fix_steps = 100_000 }

let limits_of_config c =
  {
    Budget.unlimited with
    Budget.max_support = c.max_support;
    max_count_digits = c.max_count_digits;
    max_fix_steps = c.max_fix_steps;
  }

type meters = Harness.meters

let fresh_meters = Harness.fresh_meters

module Env = Map.Make (String)

type env = Value.t Env.t

let env_of_list l = List.fold_left (fun m (x, v) -> Env.add x v m) Env.empty l

(* ------------------------------------------------------------------ *)
(* Compilation to closures under the shared {!Harness}: memoisation of
   stable operator nodes, and parallel execution. *)

type state = Harness.state

(* Keep the table from growing without bound inside huge fixpoints; a reset
   loses cached work but never correctness. *)
let memo_capacity = 1 lsl 16

(* Per-domain memo tables, keyed off domain-local storage: every domain —
   main or worker — reads and writes only its own table, so the lookup
   path needs no locks at all.  Tables are recycled across runs by tagging
   them with the run id: node ids restart at 1 for every compilation, so a
   stale entry from a previous run must never be visible. *)
type memo_tbl = (int * int, (Value.t option list * Value.t) list ref) Hashtbl.t

let memo_slot : (int ref * memo_tbl) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref (-1), Hashtbl.create 256))

let memo_table (st : state) : memo_tbl =
  let rid, tbl = Domain.DLS.get memo_slot in
  if !rid <> st.run_id then begin
    rid := st.run_id;
    Hashtbl.reset tbl (* domain-local: DLS table, never shared *)
  end;
  tbl

let binding_equal a b =
  match (a, b) with
  | None, None -> true
  | Some v, Some w -> Value.equal v w
  | None, Some _ | Some _, None -> false

let bindings_equal xs ys = List.for_all2 binding_equal xs ys

let fingerprint vals =
  List.fold_left
    (fun h v ->
      match v with
      | None -> (h * 0x01000193) lxor 0x5bd1e995
      | Some v -> (h * 0x01000193) lxor Value.hash v)
    0x811c9dc5 vals

type compiled = state -> env -> Value.t

(* ------------------------------------------------------------------ *)
(* Parallel regions. *)

let par_pool (st : state) =
  match st.pool with Some p when Pool.jobs p > 1 -> Some p | _ -> None

let merge_meters (dst : meters) (src : meters) =
  if src.max_support_seen > dst.max_support_seen then
    dst.max_support_seen <- src.max_support_seen;
  if Bignat.compare src.max_count_seen dst.max_count_seen > 0 then
    dst.max_count_seen <- src.max_count_seen;
  if Bignat.compare src.max_cardinal_seen dst.max_cardinal_seen > 0 then
    dst.max_cardinal_seen <- src.max_cardinal_seen;
  dst.ops <- dst.ops + src.ops;
  dst.memo_hits <- dst.memo_hits + src.memo_hits;
  dst.memo_misses <- dst.memo_misses + src.memo_misses

(* Run [tasks] (closures over a fresh child state each) on the pool and
   join.  Child meters and telemetry shards merge into [st] whether the
   task succeeded or not — fuel spent on a failed branch is still fuel
   spent, and the steps == fuel invariant must survive exhaustion.
   Failure combination is deterministic: a non-budget exception from the
   earliest task wins (sequential evaluation would have raised it), else
   the budget verdict with the smallest preorder node id. *)
let par_run (st : state) p (tasks : (state -> 'a) list) : 'a list =
  let children =
    List.map
      (fun task ->
        let c =
          {
            st with
            meters = fresh_meters ();
            obs_cell = ref 0;
            shard =
              (match st.telemetry with
              | None -> None
              | Some _ -> Some (Telemetry.shard ()));
          }
        in
        (* Bracket the task in its own trace span (it runs on whatever
           domain picks it up, so the events land in that domain's ring);
           the end event reports the child's root cell — fuel charged
           outside any node wrapper, e.g. by memo hits at the task's top
           node — keeping the exported steps sum equal to the fuel. *)
        let traced_task () =
          if not (Obs.on ()) then task c
          else begin
            if Obs.on () then Obs.emit Obs.B ~cat:"eval" ~name:"task" ~args:[];
            match task c with
            | v ->
                if Obs.on () then Obs.emit Obs.E ~cat:"eval" ~name:"task" ~args:[ ("steps", Obs.Int !(c.obs_cell)) ];
                v
            | exception exn ->
                if Obs.on () then Obs.emit Obs.E ~cat:"eval" ~name:"task" ~args:[ ("steps", Obs.Int !(c.obs_cell)) ];
                raise exn
          end
        in
        (c, traced_task))
      tasks
  in
  let results = Pool.run p (List.map snd children) in
  List.iter
    (fun ((c : state), _) ->
      merge_meters st.meters c.meters;
      match c.shard with
      | None -> ()
      | Some src -> (
          match st.shard with
          | Some dst -> Telemetry.merge_shard_into_shard dst src
          | None -> (
              match st.telemetry with
              | Some t -> Telemetry.merge_shard t src
              | None -> ())))
    children;
  let reraise =
    List.fold_left
      (fun acc r ->
        match (acc, r) with
        | Some e, _ when not (match e with Budget.Budget_exceeded _ -> true | _ -> false) ->
            acc (* earliest non-budget exception is final *)
        | _, Ok _ -> acc
        | _, Error (Budget.Budget_exceeded x) -> (
            match acc with
            | None -> Some (Budget.Budget_exceeded x)
            | Some (Budget.Budget_exceeded y) ->
                if x.Budget.at_node < y.Budget.at_node then
                  Some (Budget.Budget_exceeded x)
                else acc
            | Some _ -> acc)
        | _, Error e -> Some e (* first non-budget error overrides *))
      None results
  in
  match reraise with
  | Some e -> raise e
  | None ->
      List.map (function Ok v -> v | Error _ -> assert false) results

(* [volatile] holds the binders whose bindings change per element or per
   fixpoint iteration; nodes mentioning them would only churn the table. *)
let rec compile reg ~parent volatile e : compiled =
  let att = Harness.attribute reg ~parent e in
  let invoke =
    Harness.node att ~observe:Harness.observe_value
      (compile_node reg ~att volatile e)
  in
  let memoisable =
    match e with
    | Expr.Var _ | Expr.Lit _ | Expr.Tuple _ | Expr.Proj _ | Expr.Sing _ ->
        false
    | _ -> Expr.Vars.disjoint (Expr.free_vars e) volatile
  in
  if not memoisable then invoke
  else begin
    let fv = Expr.Vars.elements (Expr.free_vars e) in
    fun st env ->
      let vals = List.map (fun x -> Env.find_opt x env) fv in
      let key = (att.id, fingerprint vals) in
      let hit r =
        st.meters.memo_hits <- st.meters.memo_hits + 1;
        Harness.spend st att 1;
        (match att.sp with
        | Some sp_main ->
            let sp = Harness.span_of st att sp_main in
            sp.Telemetry.invocations <- sp.Telemetry.invocations + 1;
            Telemetry.record_memo_hit sp
        | None -> ());
        r
      in
      let compute () =
        st.meters.memo_misses <- st.meters.memo_misses + 1;
        (match att.sp with
        | Some sp_main -> Telemetry.record_memo_miss (Harness.span_of st att sp_main)
        | None -> ());
        invoke st env
      in
      let memo = memo_table st in
      match Hashtbl.find_opt memo key with
      | Some entries -> (
          match
            List.find_opt (fun (vs, _) -> bindings_equal vs vals) !entries
          with
          | Some (_, r) -> hit r
          | None ->
              let r = compute () in
              entries := (vals, r) :: !entries;
              r)
      | None ->
          let r = compute () in
          if Hashtbl.length memo >= memo_capacity then
            Hashtbl.reset memo (* domain-local: DLS table, never shared *);
          Hashtbl.add memo key (ref [ (vals, r) ]) (* domain-local: DLS table *);
          r
  end

and compile_node reg ~att volatile e : compiled =
  let sub e = compile reg ~parent:att.id volatile e in
  let under x e = compile reg ~parent:att.id (Expr.Vars.add x volatile) e in
  let stable x e = compile reg ~parent:att.id (Expr.Vars.remove x volatile) e in
  (* Binary operators with two substantial operands fork their branches
     onto the pool: the operands are independent, so each evaluates in its
     own child state and the kernel combines the joined values.  Operand
     sizes are known at compile time; the sequential path keeps the
     historical right-then-left evaluation order. *)
  let bin a b kernel =
    let ca = sub a and cb = sub b in
    let sa = Expr.size a and sb = Expr.size b in
    fun st env ->
      match par_pool st with
      | Some p when sa >= Pool.fork_min p && sb >= Pool.fork_min p -> (
          match par_run st p [ (fun c -> ca c env); (fun c -> cb c env) ] with
          | [ va; vb ] -> kernel st va vb
          | _ -> assert false)
      | _ ->
          let vb = cb st env in
          let va = ca st env in
          kernel st va vb
  in
  match e with
  | Expr.Var x -> (
      fun _st env ->
        match Env.find_opt x env with
        | Some v -> v
        | None -> error "unbound variable %s" x)
  | Expr.Lit (v, _) -> fun _st _env -> v
  | Expr.Tuple es ->
      let cs = List.map sub es in
      fun st env -> Value.tuple (List.map (fun c -> c st env) cs)
  | Expr.Proj (i, e) -> (
      let c = sub e in
      fun st env ->
        let v = c st env in
        match Value.view v with
        | Value.Tuple vs when i >= 1 && i <= List.length vs ->
            List.nth vs (i - 1)
        | _ -> error "cannot project attribute %d of %s" i (Value.to_string v))
  | Expr.Sing e ->
      let c = sub e in
      fun st env -> Value.of_sorted_assoc [ (c st env, Bignat.one) ]
  | Expr.UnionAdd (a, b) -> bin a b (fun _st va vb -> Bag.union_add va vb)
  | Expr.Diff (a, b) -> bin a b (fun _st va vb -> Bag.diff va vb)
  | Expr.UnionMax (a, b) -> bin a b (fun _st va vb -> Bag.union_max va vb)
  | Expr.Inter (a, b) -> bin a b (fun _st va vb -> Bag.inter va vb)
  | Expr.Product (a, b) ->
      bin a b (fun st va vb -> Bag.product ?pool:st.pool va vb)
  | Expr.Join (i, j, a, b) ->
      bin a b (fun st va vb -> Bag.join_eq ?pool:st.pool i j va vb)
  | Expr.Powerset e ->
      let c = sub e in
      fun st env ->
        let b = c st env in
        Harness.power_guard st att b;
        Bag.powerset b
  | Expr.Powerbag e ->
      let c = sub e in
      fun st env ->
        let b = c st env in
        Harness.power_guard st att b;
        Bag.powerbag b
  | Expr.Destroy e ->
      let c = sub e in
      fun st env -> Bag.destroy (c st env)
  (* Generalized projection MAP λx.<α_{i1}(x), ...> runs as the direct
     {!Bag.proj} kernel; on malformed data ([Invalid_argument]) the generic
     closure replays the bag so error behaviour is unchanged. *)
  | Expr.Map (x, (Expr.Tuple comps as body), e)
    when List.for_all
           (function Expr.Proj (_, Expr.Var y) -> y = x | _ -> false)
           comps ->
      let ixs =
        List.map (function Expr.Proj (i, _) -> i | _ -> assert false) comps
      in
      let cbody = under x body and c = sub e in
      fun st env ->
        let b = c st env in
        (try Bag.proj ?pool:st.pool ixs b
         with Invalid_argument _ ->
           Bag.map (fun v -> cbody st (Env.add x v env)) b)
  | Expr.Map (x, body, e) ->
      let cbody = under x body and c = sub e in
      fun st env -> (
        let b = c st env in
        match par_pool st with
        | Some p when Value.is_bag b && Value.support_size b >= Pool.chunk_min p ->
            (* Chunk the support: each task maps its slice under a child
               state (per-element budget charges hit the shared atomic
               account) and locally coalesces; the per-chunk bags recombine
               with the additive sorted merge — exactly the coalescing the
               sequential [bag_of_assoc] performs. *)
            let chunks = Pool.chunks (4 * Pool.jobs p) (Value.as_bag b) in
            let parts =
              par_run st p
                (List.map
                   (fun chunk cst ->
                     Value.bag_of_assoc
                       (List.map
                          (fun (v, cnt) -> (cbody cst (Env.add x v env), cnt))
                          chunk))
                   chunks)
            in
            List.fold_left Bag.union_add Value.empty_bag parts
        | _ -> Bag.map (fun v -> cbody st (Env.add x v env)) b)
  (* σ_{i=j}: positional-equality selection runs as {!Bag.select_eq}, with
     the same generic fallback on malformed data. *)
  | Expr.Select
      ( x,
        (Expr.Proj (i, Expr.Var x1) as l),
        (Expr.Proj (j, Expr.Var x2) as r),
        e )
    when x1 = x && x2 = x ->
      let cl = under x l and cr = under x r and c = sub e in
      fun st env ->
        let b = c st env in
        (try Bag.select_eq ?pool:st.pool i j b
         with Invalid_argument _ ->
           Bag.select
             (fun v ->
               let env' = Env.add x v env in
               Value.equal (cl st env') (cr st env'))
             b)
  | Expr.Select (x, l, r, e) ->
      let cl = under x l and cr = under x r and c = sub e in
      fun st env -> (
        let b = c st env in
        let pred cst v =
          let env' = Env.add x v env in
          Value.equal (cl cst env') (cr cst env')
        in
        match par_pool st with
        | Some p when Value.is_bag b && Value.support_size b >= Pool.chunk_min p ->
            (* Filtered contiguous chunks of the sorted support concatenate
               back into one canonical list. *)
            let chunks = Pool.chunks (4 * Pool.jobs p) (Value.as_bag b) in
            let parts =
              par_run st p
                (List.map
                   (fun chunk cst ->
                     List.filter (fun (v, _) -> pred cst v) chunk)
                   chunks)
            in
            Value.of_sorted_assoc (List.concat parts)
        | _ -> Bag.select (pred st) b)
  | Expr.Dedup e ->
      let c = sub e in
      fun st env -> Bag.dedup (c st env)
  | Expr.Nest (ixs, e) ->
      let c = sub e in
      fun st env -> Bag.nest ixs (c st env)
  | Expr.Unnest (i, e) ->
      let c = sub e in
      fun st env -> Bag.unnest i (c st env)
  | Expr.Let (x, e, body) ->
      let c = sub e and cbody = stable x body in
      fun st env -> cbody st (Env.add x (c st env) env)
  | Expr.Fix (x, body, seed) ->
      let cbody = under x body and cseed = sub seed in
      fun st env ->
        Harness.iterate st att ~bound:None
          ~step:(fun cur -> cbody st (Env.add x cur env))
          (cseed st env)
  | Expr.BFix (bound, x, body, seed) ->
      let cbound = sub bound and cbody = under x body and cseed = sub seed in
      fun st env ->
        let bound = cbound st env in
        Harness.iterate st att ~bound:(Some bound)
          ~step:(fun cur -> cbody st (Env.add x cur env))
          (cseed st env)

(* ------------------------------------------------------------------ *)
(* Entry points. *)

(* Distinct run ids (the family's counter) recycle the per-domain memo
   tables between runs. *)
let family =
  Harness.family ~prefix:"balg_eval" ~noun:"evaluation" ~peak_support:true ()

let run ?budget ?limits ?meters ?telemetry ?pool env e =
  let budget = Harness.budget ?budget ?limits () in
  let compiled =
    compile (Harness.registry telemetry) ~parent:0 Expr.Vars.empty e
  in
  Harness.run family ~budget ?meters ?telemetry ?pool ~size:(Expr.size e)
    (fun st -> compiled st env)

let eval ?(config = default_config) ?meters ?pool env e =
  match run ~limits:(limits_of_config config) ?meters ?pool env e with
  | Ok v -> v
  | Error x -> raise (Resource_limit (Budget.exhaustion_to_string x))

(** Boolean convention for queries: a result is true when the output bag is
    nonempty (cf. Example 4.1's [≠ ∅] tests). *)
let truthy v =
  match Value.view v with
  | Value.Bag [] -> false
  | Value.Bag _ -> true
  | Value.Atom _ | Value.Tuple _ ->
      error "truthiness of a non-bag value %s" (Value.to_string v)
