(* The in-process replay: the request stream a wire run sent, fed in send
   order through the same public functions [Server.handle_eval] and
   [Server.handle_def] call, on a fresh copy of the store.  Traced, it
   records a span around each call; untraced, only each request's total.

   Spans nest by depth: 0 is the request, 1 a call on the session side, 2
   the worker's run closure and 3 the calls inside it.  A layer's self
   time is its span minus its children, and every request's self times
   must add up to its total. *)

open Balg
module Bagdb = Baglang.Bagdb
module Parser = Baglang.Parser
module Lexer = Baglang.Lexer
module Store = Balgserver.Store
module Cache = Balgserver.Cache
module Exec = Balgserver.Exec

let now_ns = Wire.now_ns

type span = { name : string; depth : int; t0 : int; t1 : int }

type step = {
  reply : string;
  total_ns : int;
  spans : span list;  (** empty when untraced *)
  counts : (string * float) list;  (** per-request counters, traced only *)
}

type session = { mutable engine : Veval.engine; mutable mode : Opt.mode; limits : Budget.limits }

type t = {
  traced : bool;
  store : Store.t;
  cache : Cache.t;
  exec : Exec.t;
  sessions : (int, session) Hashtbl.t;
  mutable spans : span list;
  mutable counts : (string * float) list;
}

(* Server defaults: [balgd]'s default fuel and executor sizing, the
   store's 1 MiB compaction threshold and the cache's 512 entries. *)
let create ~traced ~store_dir =
  {
    traced;
    store = Store.open_store ~compact_bytes:(1 lsl 20) ~dir:(Some store_dir) ();
    cache = Cache.create ~capacity:512 ();
    exec = Exec.create ~ceiling:32_000_000 ~max_queue:64 ~workers:2 ();
    sessions = Hashtbl.create 4;
    spans = [];
    counts = [];
  }

let close r =
  Exec.shutdown r.exec;
  Store.close r.store

(* Time [f] as a span; [into] collects it (the worker closure keeps its
   own list, handed back through the executor's result handoff). *)
let timed traced into ~depth name f =
  if not traced then f ()
  else
    let t0 = now_ns () in
    let finish () = into := { name; depth; t0; t1 = now_ns () } :: !into in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e

let count r name v = if r.traced then r.counts <- (name, v) :: r.counts

let wchar () =
  let s = Wire.read_file "/proc/self/io" in
  let line = List.find (fun l -> String.length l > 6 && String.equal (String.sub l 0 6) "wchar:") (String.split_on_char '\n' s) in
  Scanf.sscanf line "wchar: %d" Fun.id

let render v ty = Oracle.one_line (Printf.sprintf "ok %s : %s" (Value.to_string v) (Ty.to_string ty))
let db_vals db = List.map (fun (n, _ty, v) -> (n, v)) db

let eval_req r sess q =
  let spans = ref r.spans in
  let span name f = timed r.traced spans ~depth:1 name f in
  let reply =
    match span "parser.parse" (fun () -> Parser.expr_of_string q) with
    | exception Parser.Parse_error (msg, pos) -> Printf.sprintf "err parse: offset %d: %s" pos msg
    | exception Lexer.Lex_error (msg, pos) -> Printf.sprintf "err parse: lex error at offset %d: %s" pos msg
    | e -> (
        let db = Store.snapshot r.store in
        match span "typecheck.infer" (fun () -> Typecheck.infer (Bagdb.type_env db) e) with
        | exception Typecheck.Type_error msg -> "err type: " ^ msg
        | ty -> (
            let engine = sess.engine and mode = sess.mode in
            let key, rels = span "cache.key" (fun () -> Cache.key ~engine ~mode ~db e) in
            match span "cache.find" (fun () -> Cache.find r.cache ~key ~rels) with
            | Some (v, ty') ->
                let s = span "value.render" (fun () -> render v ty') in
                count r "value.reply_bytes" (float_of_int (String.length s));
                s
            | None -> (
                let budget = Budget.create sess.limits in
                let wspans = ref [] and wcounts = ref [] in
                let run () =
                  let wspan ~depth name f = timed r.traced wspans ~depth name f in
                  wspan ~depth:2 "exec.run" (fun () ->
                      let plan, decisions =
                        wspan ~depth:3 "opt.optimize" (fun () ->
                            match Opt.optimize ~vals:(db_vals db) ~engine mode (Bagdb.type_env db) e with
                            | p, rep ->
                                let ds = rep.Opt.r_decisions in
                                ignore
                                  (String.concat " "
                                     (List.map (fun d -> d.Opt.d_rule ^ if d.Opt.d_accepted then "+" else "-") ds));
                                (p, List.length ds)
                            | exception _ -> (e, 0))
                      in
                      let env = wspan ~depth:3 "bagdb.value_env" (fun () -> Bagdb.value_env db) in
                      let labels = ref "" in
                      let a0 = Gc.minor_words () in
                      let outcome =
                        wspan ~depth:3 "veval.run" (fun () ->
                            match
                              match engine with
                              | Veval.Tree -> Veval.run_engine Veval.Tree ~budget env plan
                              | Veval.Vec ->
                                  Veval.run ~budget ~report:(fun p -> labels := Oracle.one_line (Veval.plan_to_string p)) env plan
                            with
                            | Ok v -> `Ok (v, ty)
                            | Error x -> `Verdict x
                            | exception Eval.Eval_error msg -> `Fail ("eval: " ^ msg))
                      in
                      wcounts := [ ("veval.alloc_words", Gc.minor_words () -. a0); ("opt.decisions", float_of_int decisions) ];
                      ignore (wspan ~depth:3 "expr.plan_string" (fun () -> Expr.to_string plan));
                      outcome)
                in
                match span "exec.submit" (fun () -> Exec.submit r.exec ~weight:sess.limits.Budget.fuel ~budget ~run) with
                | Error msg -> "err busy: " ^ msg
                | Ok (outcome, st) -> (
                    spans := !wspans @ !spans;
                    List.iter (fun (n, v) -> count r n v) !wcounts;
                    count r "exec.queue_wait_us" (float_of_int st.Exec.s_queue_us);
                    count r "veval.fuel" (float_of_int (Budget.fuel_spent budget));
                    match outcome with
                    | `Ok (v, ty) ->
                        span "cache.add" (fun () -> Cache.add r.cache ~key ~rels v ty);
                        let s = span "value.render" (fun () -> render v ty) in
                        count r "value.reply_bytes" (float_of_int (String.length s));
                        s
                    | `Verdict x -> "verdict " ^ Budget.exhaustion_to_string x
                    | `Fail msg -> "err " ^ Oracle.one_line msg))))
  in
  r.spans <- !spans;
  reply

let def_req r rest =
  let spans = ref r.spans in
  let span name f = timed r.traced spans ~depth:1 name f in
  let reply =
    match span "bagdb.parse" (fun () -> Bagdb.parse rest) with
    | exception Bagdb.Db_error e -> "err db: " ^ Bagdb.error_to_string e
    | [ (n, ty, v) ] -> (
        let w0 = if r.traced then wchar () else 0 in
        match span "store.apply" (fun () -> Store.apply r.store (Store.Def (n, ty, v))) with
        | Ok () ->
            if r.traced then begin
              count r "store.written_bytes" (float_of_int (wchar () - w0));
              count r "store.user_bytes" (float_of_int (String.length rest))
            end;
            span "cache.invalidate" (fun () -> Cache.invalidate r.cache n);
            "ok defined " ^ n
        | Error msg -> "err wal: " ^ Oracle.one_line msg)
    | _ -> "err proto: def takes exactly one declaration"
  in
  r.spans <- !spans;
  reply

(* The benchmark only sends the engine and optimizer settings. *)
let set_req sess args =
  List.for_all
    (fun tok ->
      match String.split_on_char '=' tok with
      | [ "engine"; v ] -> Option.fold ~none:false ~some:(fun e -> sess.engine <- e; true) (Veval.engine_of_string v)
      | [ "optimize"; v ] -> Option.fold ~none:false ~some:(fun m -> sess.mode <- m; true) (Opt.mode_of_string v)
      | _ -> false)
    (String.split_on_char ' ' args)

let after p s = String.sub s (String.length p) (String.length s - String.length p)

let step r ~client line =
  let sess =
    match Hashtbl.find_opt r.sessions client with
    | Some s -> s
    | None ->
        let s = { engine = Veval.Tree; mode = Opt.Off; limits = { Budget.default with Budget.fuel = 4_000_000 } } in
        Hashtbl.replace r.sessions client s;
        s
  in
  r.spans <- [];
  r.counts <- [];
  let t0 = now_ns () in
  let reply =
    if Oracle.prefixed "eval " line then eval_req r sess (after "eval " line)
    else if Oracle.prefixed "def " line then def_req r (after "def " line)
    else if Oracle.prefixed "set " line then if set_req sess (after "set " line) then "ok" else "err proto: bad set"
    else "err proto: unknown command"
  in
  let t1 = now_ns () in
  let spans = if r.traced then { name = "request"; depth = 0; t0; t1 } :: r.spans else [] in
  { reply; total_ns = t1 - t0; spans; counts = r.counts }

(* Self time of each span, after checking that every span lies inside
   one span a level up and that siblings do not overlap.  [Error] names
   the first violation, or a request whose self times do not add up to
   its total. *)
let self_times (s : step) =
  let spans = List.sort (fun a b -> compare (a.t0, a.depth) (b.t0, b.depth)) s.spans in
  let inside c p = c.depth = p.depth + 1 && c.t0 >= p.t0 && c.t1 <= p.t1 in
  let children p = List.filter (fun c -> inside c p) spans in
  let orphan = List.find_opt (fun c -> c.depth > 0 && not (List.exists (inside c) spans)) spans in
  let overlap =
    List.exists
      (fun p ->
        let rec go = function a :: (b :: _ as tl) -> a.t1 > b.t0 || go tl | _ -> false in
        go (children p))
      spans
  in
  match orphan with
  | Some c -> Error (Printf.sprintf "span %s lies outside its parent" c.name)
  | None when overlap -> Error "sibling spans overlap"
  | None ->
      let selfs =
        List.map
          (fun p -> (p.name, p.t1 - p.t0 - List.fold_left (fun acc c -> acc + c.t1 - c.t0) 0 (children p)))
          spans
      in
      let sum = List.fold_left (fun acc (_, d) -> acc + d) 0 selfs in
      (* the monotonic clock counts whole nanoseconds *)
      if abs (sum - s.total_ns) > 1 then Error (Printf.sprintf "self times sum to %d ns of %d" sum s.total_ns)
      else Ok selfs

let run ~traced ~store_dir lines =
  let r = create ~traced ~store_dir in
  Fun.protect ~finally:(fun () -> close r) (fun () -> List.map (fun (client, line) -> step r ~client line) lines)

(* One Chrome trace of every traced request, session calls on thread 1
   and the worker's on thread 2. *)
let write_chrome path steps =
  let origin = match steps with (s : step) :: _ -> (List.hd s.spans).t0 | [] -> 0 in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[";
      let first = ref true in
      List.iteri
        (fun i (s : step) ->
          List.iter
            (fun sp ->
              if not !first then output_char oc ',';
              first := false;
              Printf.fprintf oc "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d}}"
                sp.name
                (if sp.depth >= 2 then 2 else 1)
                (float_of_int (sp.t0 - origin) /. 1e3)
                (float_of_int (sp.t1 - sp.t0) /. 1e3)
                i)
            s.spans)
        steps;
      output_string oc "]}\n")
