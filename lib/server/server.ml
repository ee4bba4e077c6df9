(* The concurrent bag-database server; see server.mli for the model. *)

open Balg
module Parser = Baglang.Parser
module Lexer = Baglang.Lexer
module Bagdb = Baglang.Bagdb

(* Injection sites.  [server.accept]: the freshly accepted connection is
   dropped on the floor (a transient accept failure); [server.session]:
   the session dies before serving its next request (a crashed
   per-connection handler) — every other session must keep working. *)
let accept_site = Fault.register "server.accept"
let session_site = Fault.register "server.session"

let m_sessions =
  Metrics.counter Metrics.default "balg_server_sessions_total"
    ~help:"Client connections accepted"

let m_session_faults =
  Metrics.counter Metrics.default "balg_server_session_faults_total"
    ~help:"Sessions killed by the server.accept/server.session fault sites"

let m_requests =
  Metrics.counter Metrics.default "balg_server_requests_total"
    ~help:"Protocol requests served (all commands)"

let m_evals =
  Metrics.counter Metrics.default "balg_server_evals_total"
    ~help:"eval requests that reached evaluation (cache misses)"

let m_http =
  Metrics.counter Metrics.default "balg_server_http_requests_total"
    ~help:"HTTP requests served (metrics scrapes, health checks)"

let h_request_ns =
  Metrics.histogram Metrics.default "balg_server_request_ns"
    ~help:"Wall-clock time of evaluated requests (nanoseconds)"

(* Per-command latency, one histogram per command kind (the registry is
   label-free): eval covers the whole session-side request including
   queue wait, def/drop cover parse+WAL+publish, other is the cheap
   introspection tail (ping/list/role/...). *)
let h_cmd_eval_ns =
  Metrics.histogram Metrics.default "balg_server_cmd_eval_ns"
    ~help:"Latency of eval commands, session-side (nanoseconds)"

let h_cmd_def_ns =
  Metrics.histogram Metrics.default "balg_server_cmd_def_ns"
    ~help:"Latency of def commands (nanoseconds)"

let h_cmd_drop_ns =
  Metrics.histogram Metrics.default "balg_server_cmd_drop_ns"
    ~help:"Latency of drop commands (nanoseconds)"

let h_cmd_other_ns =
  Metrics.histogram Metrics.default "balg_server_cmd_other_ns"
    ~help:"Latency of all other protocol commands (nanoseconds)"

let g_open_sessions =
  Metrics.gauge Metrics.default "balg_server_open_sessions"
    ~help:"Client connections currently open"

let g_role =
  Metrics.gauge Metrics.default "balg_server_role"
    ~help:"Replication role: 1 primary (writable), 0 follower (read-only)"

type config = {
  host : string;
  port : int;
  store_dir : string option;
  seed_db : Bagdb.t;
  ceiling : int;
  max_queue : int;
  workers : int;
  default_fuel : int;
  engine : Veval.engine;
  optimize : Opt.mode;
  cache_capacity : int;
  compact_bytes : int;
  follow : (string * int) option;
  repl_params : Repl.params;
  access_log : string option;
  slow_log : string option;
  slow_ms : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7421;
    store_dir = None;
    seed_db = [];
    ceiling = 32_000_000;
    max_queue = 64;
    workers = 4;
    default_fuel = 4_000_000;
    engine = Veval.Tree;
    optimize = Opt.Off;
    cache_capacity = 512;
    compact_bytes = 1 lsl 20;
    follow = None;
    repl_params = Repl.default_params;
    access_log = None;
    slow_log = None;
    slow_ms = 100.;
  }

type session = {
  s_id : int;
  mutable s_limits : Budget.limits;
  mutable s_engine : Veval.engine;
  mutable s_mode : Opt.mode;
}

type t = {
  cfg : config;
  store : Store.t;
  cache : Cache.t;
  exec : Exec.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  mutable accept_thread : Thread.t option;
  reg_mu : Mutex.t;
  reg : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  mutable next_id : int;
  mutable stopping : bool;
  mutable stopped : bool;
  stop_mu : Mutex.t;
  stop_cv : Condition.t;
  role_mu : Mutex.t;
  mutable role : [ `Primary | `Follower ];
  mutable follower : Repl.follower option;
  next_req : int Atomic.t;  (* request ids, minted per protocol command *)
  log_mu : Mutex.t;  (* serializes the access/slow JSONL channels *)
  access_oc : out_channel option;
  slow_oc : out_channel option;
}

(* --- small helpers --------------------------------------------------------- *)

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let after prefix s =
  String.sub s (String.length prefix) (String.length s - String.length prefix)

(* --- structured logs -------------------------------------------------------- *)

let json_str s = "\"" ^ Obs.json_escape s ^ "\""

(* One flat JSON object per line (Obs.Log conventions), mutex-serialized
   and flushed per line so every completed command survives any exit
   path — a crash loses at most the line being written. *)
let log_line sv oc line =
  Mutex.lock sv.log_mu;
  (try
     output_string oc line;
     output_char oc '\n';
     flush oc
   with Sys_error _ -> ());
  Mutex.unlock sv.log_mu

let access_line sv ~sid ~req ~cmd ~dur_us ~outcome =
  match sv.access_oc with
  | None -> ()
  | Some oc ->
      log_line sv oc
        (Printf.sprintf
           "{\"ts\":%.6f,\"session\":%d,\"req\":%d,\"cmd\":%s,\"dur_us\":%d,\"outcome\":%s}"
           (Unix.gettimeofday ()) sid req (json_str cmd) dur_us
           (json_str outcome))

let cmd_word line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> if String.equal line "" then "empty" else line
  | Some i -> String.sub line 0 i

let outcome_of_reply = function
  | None -> "bye"
  | Some r ->
      if starts_with "err busy" r then "busy"
      else if starts_with "err" r then "error"
      else if starts_with "verdict" r then "verdict"
      else "ok"

(* Exactly-once close through the registry: both a session's own exit and
   a server-wide [stop] funnel here, so a file descriptor is never closed
   twice (and never closed while the other party still believes it owns
   it). *)
let registry_close sv id =
  Mutex.lock sv.reg_mu;
  let entry = Hashtbl.find_opt sv.reg id in
  Hashtbl.remove sv.reg id;
  Mutex.unlock sv.reg_mu;
  match entry with
  | None -> ()
  | Some (fd, _) ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Metrics.set_gauge g_open_sessions
        (float_of_int
           (Mutex.lock sv.reg_mu;
            let n = Hashtbl.length sv.reg in
            Mutex.unlock sv.reg_mu;
            n))

(* --- roles ------------------------------------------------------------------ *)

let follower_status sv =
  Mutex.lock sv.role_mu;
  let f = sv.follower in
  Mutex.unlock sv.role_mu;
  Option.map Repl.status f

(* [Some err] when this node must reject writes: a follower serves reads
   only until it is promoted.  (A WAL failure is a different rejection —
   the store itself answers that one.) *)
let follower_guard sv =
  Mutex.lock sv.role_mu;
  let r = sv.role in
  Mutex.unlock sv.role_mu;
  match r with
  | `Primary -> None
  | `Follower -> Some "err readonly: follower (promote to accept writes)"

(* Promotion: stop the catch-up loop, seal the replicated log into a
   snapshot, flip the role.  The seal is best-effort — the WAL is intact
   and replayable either way, and a new primary that cannot compact is
   still better than no primary at all. *)
let promote sv =
  Mutex.lock sv.role_mu;
  match sv.role with
  | `Primary ->
      Mutex.unlock sv.role_mu;
      `Already_primary
  | `Follower ->
      let f = sv.follower in
      sv.follower <- None;
      sv.role <- `Primary;
      Mutex.unlock sv.role_mu;
      Option.iter Repl.stop f;
      ignore (Store.compact sv.store);
      Metrics.set_gauge g_role 1.;
      if Obs.on () then Obs.emit Obs.I ~cat:"repl" ~name:"repl.promote" ~args:[ ("offset", Obs.Int (Store.log_seq sv.store)) ];
      `Promoted

let role_line sv =
  match follower_status sv with
  | Some st ->
      Printf.sprintf "ok follower offset=%d lag=%d %s" st.Repl.applied_seq
        st.Repl.lag
        (if st.Repl.lost then "lost"
         else if st.Repl.connected then "connected"
         else "connecting")
  | None -> Printf.sprintf "ok primary offset=%d" (Store.log_seq sv.store)

(* --- the eval path --------------------------------------------------------- *)

let db_vals db = List.map (fun (n, _ty, v) -> (n, v)) db

let handle_eval sv sess ~req q =
  let lane = Obs.lane_session sess.s_id in
  let t_start = Unix.gettimeofday () in
  (* The slow-query log: one JSONL line per eval at or above the
     threshold, carrying everything needed to understand the latency
     without re-running the query.  [details] renders the plan, decision
     and engine strings; it runs only when a line is written. *)
  let slow ~outcome ~cache ~details ~queue_us ~fuel =
    match sv.slow_oc with
    | None -> ()
    | Some oc ->
        let dur_ms = (Unix.gettimeofday () -. t_start) *. 1e3 in
        if dur_ms >= sv.cfg.slow_ms then
          let plan, decisions, engines = details () in
          log_line sv oc
            (Printf.sprintf
               "{\"ts\":%.6f,\"session\":%d,\"req\":%d,\"dur_ms\":%.3f,\"query\":%s,\"plan\":%s,\"decisions\":%s,\"engine\":%s,\"cache\":%s,\"queue_us\":%d,\"fuel\":%d,\"outcome\":%s}"
               (Unix.gettimeofday ()) sess.s_id req dur_ms (json_str q)
               (json_str plan) (json_str decisions) (json_str engines)
               (json_str cache) queue_us fuel (json_str outcome))
  in
  match Parser.expr_of_string q with
  | exception Parser.Parse_error (msg, pos) ->
      Printf.sprintf "err parse: offset %d: %s" pos msg
  | exception Lexer.Lex_error (msg, pos) ->
      Printf.sprintf "err parse: lex error at offset %d: %s" pos msg
  | e -> (
      (* snapshot isolation: this request evaluates against the store as
         of now, no matter how many writes land while it waits or runs *)
      let db = Store.snapshot sv.store in
      let tenv = Bagdb.type_env db in
      match Typecheck.infer tenv e with
      | exception Typecheck.Type_error msg -> "err type: " ^ msg
      | ty -> (
          let ckey, rels =
            Cache.key ~engine:sess.s_engine ~mode:sess.s_mode ~db e
          in
          match Cache.find sv.cache ~key:ckey ~rels with
          | Some (v, ty') ->
              slow ~outcome:"ok" ~cache:"hit"
                ~details:(fun () ->
                  ("(cached)", "", Veval.engine_to_string sess.s_engine))
                ~queue_us:0 ~fuel:0;
              Printf.sprintf "ok %s : %s" (Value.to_string v)
                (Ty.to_string ty')
          | None -> (
              Metrics.incr m_evals;
              let budget = Budget.create sess.s_limits in
              let weight = sess.s_limits.Budget.fuel in
              let engine = sess.s_engine and mode = sess.s_mode in
              let sid = sess.s_id in
              (* plan analytics escape the worker closure through a ref:
                 the executor's result handoff (j_mu/j_cv) orders the
                 worker's write before this thread's read.  They stay
                 unrendered until the slow log asks for them. *)
              let no_details () = ("", "", "") in
              let details = ref no_details in
              let run () =
                (* worker domain: plan, then evaluate under the armed
                   budget; the request span lands in the worker's own
                   trace ring, tied to the session span by the req id *)
                if Obs.on () then Obs.emit Obs.B ~cat:"worker" ~name:"request" ~args:[ ("req", Obs.Int req); ("session", Obs.Int sid); ("engine", Obs.Str (Veval.engine_to_string engine)) ];
                let t0 = Unix.gettimeofday () in
                let label = ref "error" in
                Fun.protect
                  ~finally:(fun () ->
                    Metrics.observe h_request_ns
                      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
                    if Obs.on () then Obs.emit Obs.E ~cat:"worker" ~name:"request" ~args:[ ("req", Obs.Int req); ("session", Obs.Int sid); ("outcome", Obs.Str !label) ])
                  (fun () ->
                    (* [Off] plans are the input itself with no decisions:
                       skip the optimizer's cost and property passes *)
                    let plan, decisions =
                      match mode with
                      | Opt.Off -> (e, Some [])
                      | Opt.Rules | Opt.Cost -> (
                          match
                            Opt.optimize ~vals:(db_vals db) ~engine mode tenv e
                          with
                          | p, rep -> (p, Some rep.Opt.r_decisions)
                          | exception _ -> (e, None))
                    in
                    let executed = ref None in
                    let env = Bagdb.value_env db in
                    let outcome =
                      match
                        match engine with
                        | Veval.Tree ->
                            Veval.run_engine Veval.Tree ~budget env plan
                        | Veval.Vec ->
                            Veval.run ~budget
                              ~report:(fun p -> executed := Some p)
                              env plan
                      with
                      | Ok v -> `Ok (v, ty)
                      | Error x -> `Verdict x
                      | exception Eval.Eval_error msg ->
                          `Fail ("eval: " ^ msg)
                    in
                    (details :=
                       fun () ->
                         ( Expr.to_string plan,
                           (match decisions with
                           | None -> "planning-failed"
                           | Some ds ->
                               String.concat " "
                                 (List.map
                                    (fun d ->
                                      d.Opt.d_rule
                                      ^ if d.Opt.d_accepted then "+" else "-")
                                    ds)),
                           match !executed with
                           | Some p -> one_line (Veval.plan_to_string p)
                           | None -> Veval.engine_to_string engine ));
                    (label :=
                       match outcome with
                       | `Ok _ -> "ok"
                       | `Verdict x ->
                           Budget.resource_to_string x.Budget.resource
                       | `Fail _ -> "error");
                    outcome)
              in
              match Exec.submit sv.exec ~weight ~budget ~run with
              | Error msg ->
                  slow ~outcome:"busy" ~cache:"miss" ~details:no_details
                    ~queue_us:0 ~fuel:0;
                  "err busy: " ^ msg
              | Ok (outcome, st) -> (
                  (* retro-dated queue-wait span: this thread emitted
                     nothing since the session-request B, and
                     enq <= arm <= now, so per-lane monotonicity holds
                     (the ring clamp only ever raises both ends
                     together) *)
                  if Obs.on () then Obs.emit Obs.B ~tid:lane ~ts_us:st.Exec.s_enq_us ~cat:"queue" ~name:"wait" ~args:[ ("req", Obs.Int req) ];
                  if Obs.on () then Obs.emit Obs.E ~tid:lane ~ts_us:st.Exec.s_arm_us ~cat:"queue" ~name:"wait" ~args:[ ("req", Obs.Int req); ("wait_us", Obs.Int st.Exec.s_queue_us) ];
                  let details = !details in
                  let queue_us = st.Exec.s_queue_us in
                  let fuel = Budget.fuel_spent budget in
                  match outcome with
                  | `Ok (v, ty) ->
                      Cache.add sv.cache ~key:ckey ~rels v ty;
                      slow ~outcome:"ok" ~cache:"miss" ~details ~queue_us
                        ~fuel;
                      Printf.sprintf "ok %s : %s" (Value.to_string v)
                        (Ty.to_string ty)
                  | `Verdict x ->
                      slow
                        ~outcome:(Budget.resource_to_string x.Budget.resource)
                        ~cache:"miss" ~details ~queue_us ~fuel;
                      "verdict " ^ Budget.exhaustion_to_string x
                  | `Fail msg ->
                      slow ~outcome:"error" ~cache:"miss" ~details ~queue_us
                        ~fuel;
                      "err " ^ msg))))

(* --- writes ---------------------------------------------------------------- *)

(* A write's WAL append + publish, wrapped in a wal-category span on the
   session's lane so the flush shows up inside the request span. *)
let apply_traced sv sess ~req ~rel op =
  let lane = Obs.lane_session sess.s_id in
  if Obs.on () then Obs.emit Obs.B ~tid:lane ~cat:"wal" ~name:"commit" ~args:[ ("req", Obs.Int req); ("rel", Obs.Str rel) ];
  let r = Store.apply sv.store op in
  if Obs.on () then Obs.emit Obs.E ~tid:lane ~cat:"wal" ~name:"commit" ~args:[ ("req", Obs.Int req); ("outcome", Obs.Str (match r with Ok () -> "ok" | Error _ -> "error")) ];
  r

let handle_def sv sess ~req rest =
  match Bagdb.parse rest with
  | exception Bagdb.Db_error e -> "err db: " ^ Bagdb.error_to_string e
  | [] -> "err proto: def expects a declaration: def bag NAME : TYPE = VALUE"
  | _ :: _ :: _ -> "err proto: def takes exactly one declaration"
  | [ (n, ty, v) ] -> (
      match apply_traced sv sess ~req ~rel:n (Store.Def (n, ty, v)) with
      | Ok () ->
          Cache.invalidate sv.cache n;
          "ok defined " ^ n
      | Error msg -> "err wal: " ^ msg)

let handle_drop sv sess ~req name =
  let name = String.trim name in
  if String.equal name "" then "err proto: drop expects a relation name"
  else if
    (* a validation failure is a db error, not a WAL one; Store.apply
       re-validates under its own lock, so a racing drop still fails
       safely — just with the coarser label *)
    not
      (List.exists
         (fun (m, _, _) -> String.equal m name)
         (Store.snapshot sv.store))
  then "err db: no such relation " ^ name
  else
    match apply_traced sv sess ~req ~rel:name (Store.Drop name) with
    | Ok () ->
        Cache.invalidate sv.cache name;
        "ok dropped " ^ name
    | Error msg -> "err wal: " ^ msg

(* --- session limits -------------------------------------------------------- *)

let handle_set sess args =
  let toks =
    List.filter (fun s -> not (String.equal s "")) (String.split_on_char ' ' args)
  in
  let set_one acc tok =
    match acc with
    | Error _ as e -> e
    | Ok () -> (
        match String.index_opt tok '=' with
        | None -> Error (Printf.sprintf "err proto: set expects key=value, got %s" tok)
        | Some i -> (
            let k = String.sub tok 0 i in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            let int_field f =
              match int_of_string_opt v with
              | Some n when n > 0 ->
                  sess.s_limits <- f sess.s_limits n;
                  Ok ()
              | _ -> Error (Printf.sprintf "err proto: %s expects a positive integer" k)
            in
            match k with
            | "fuel" -> int_field (fun l n -> { l with Budget.fuel = n })
            | "max-support" ->
                int_field (fun l n -> { l with Budget.max_support = n })
            | "max-size" -> int_field (fun l n -> { l with Budget.max_size = n })
            | "max-count-digits" ->
                int_field (fun l n -> { l with Budget.max_count_digits = n })
            | "max-fix-steps" ->
                int_field (fun l n -> { l with Budget.max_fix_steps = n })
            | "timeout" -> (
                match float_of_string_opt v with
                | Some s when s > 0. ->
                    sess.s_limits <- { sess.s_limits with Budget.deadline_s = Some s };
                    Ok ()
                | Some 0. ->
                    sess.s_limits <- { sess.s_limits with Budget.deadline_s = None };
                    Ok ()
                | _ -> Error "err proto: timeout expects seconds (0 clears)")
            | "engine" -> (
                match Veval.engine_of_string v with
                | Some e ->
                    sess.s_engine <- e;
                    Ok ()
                | None -> Error "err proto: engine expects tree or vec")
            | "optimize" -> (
                match Opt.mode_of_string v with
                | Some m ->
                    sess.s_mode <- m;
                    Ok ()
                | None -> Error "err proto: optimize expects off, rules or cost")
            | _ -> Error ("err proto: unknown setting " ^ k)))
  in
  match List.fold_left set_one (Ok ()) toks with
  | Ok () when toks = [] -> "err proto: set expects key=value pairs"
  | Ok () -> "ok"
  | Error msg -> msg

(* --- request dispatch ------------------------------------------------------ *)

(* [None] means: close the session.  Multi-line responses are terminated
   by a lone "." line (their payload lines never start with a dot). *)
let dispatch sv sess ~req line =
  if String.equal (String.trim line) "" then Some ""
  else if String.equal line "quit" then None
  else if String.equal line "ping" then Some "ok pong"
  else if String.equal line "list" then
    Some
      ("ok "
      ^ String.concat " "
          (List.map (fun (n, _, _) -> n) (Store.snapshot sv.store)))
  else if String.equal line "metrics" then
    Some (Metrics.to_prometheus Metrics.default ^ ".")
  else if String.equal line "trace" then
    (* a live snapshot of the rings: reading while workers still emit is
       safe but can see a torn tail — the authoritative artifact is the
       file balgd writes at shutdown (--trace-out) *)
    Some
      (if Obs.on () then Obs.Trace.to_chrome_json () ^ "."
       else
         "err unavailable: tracing disabled (start balgd with --trace-out)")
  else if String.equal line "dump" then
    let body = Bagdb.render (Store.snapshot sv.store) in
    Some (if String.equal body "" then "." else body ^ "\n.")
  else if String.equal line "role" then Some (role_line sv)
  else if String.equal line "promote" then
    Some
      (match promote sv with
      | `Promoted -> "ok promoted"
      | `Already_primary -> "ok already primary")
  else if String.equal line "compact" then
    Some
      (match follower_guard sv with
      | Some err -> err
      | None -> (
          match Store.compact sv.store with
          | Ok () -> "ok compacted"
          | Error msg -> "err wal: " ^ one_line msg))
  else if starts_with "eval " line then
    Some (one_line (handle_eval sv sess ~req (after "eval " line)))
  else if starts_with "def " line then
    Some
      (match follower_guard sv with
      | Some err -> err
      | None -> one_line (handle_def sv sess ~req (after "def " line)))
  else if starts_with "drop " line then
    Some
      (match follower_guard sv with
      | Some err -> err
      | None -> one_line (handle_drop sv sess ~req (after "drop " line)))
  else if starts_with "set " line then
    Some (one_line (handle_set sess (after "set " line)))
  else Some ("err proto: unknown command " ^ one_line line)

let cmd_hist cmd =
  match cmd with
  | "eval" -> h_cmd_eval_ns
  | "def" -> h_cmd_def_ns
  | "drop" -> h_cmd_drop_ns
  | _ -> h_cmd_other_ns

(* The request wrapper: mint the id, open the session-lane span, run the
   command, then close the span, record per-command latency and write
   the access-log line — on the exception path too, so a dying session
   never leaves an unbalanced span or an unlogged command. *)
let respond sv sess line =
  Metrics.incr m_requests;
  let line = strip_cr line in
  let req = Atomic.fetch_and_add sv.next_req 1 in
  let cmd = cmd_word line in
  let lane = Obs.lane_session sess.s_id in
  let t0 = Unix.gettimeofday () in
  if Obs.on () then Obs.emit Obs.B ~tid:lane ~cat:"session" ~name:"request" ~args:[ ("req", Obs.Int req); ("session", Obs.Int sess.s_id); ("cmd", Obs.Str cmd) ];
  let finish outcome =
    let dur_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    if Obs.on () then Obs.emit Obs.E ~tid:lane ~cat:"session" ~name:"request" ~args:[ ("req", Obs.Int req); ("outcome", Obs.Str outcome); ("dur_us", Obs.Int dur_us) ];
    Metrics.observe (cmd_hist cmd) (dur_us * 1000);
    access_line sv ~sid:sess.s_id ~req ~cmd ~dur_us ~outcome
  in
  match dispatch sv sess ~req line with
  | reply ->
      finish (outcome_of_reply reply);
      reply
  | exception exn ->
      finish "exception";
      raise exn

(* --- HTTP ------------------------------------------------------------------ *)

let http_response oc status content_type body =
  output_string oc
    (Printf.sprintf
       "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
        close\r\n\r\n"
       status content_type (String.length body));
  output_string oc body;
  flush oc

(* Health is role-aware and degradation-aware: a store that went
   read-only (wal.append fault, ENOSPC) or a follower past its backoff
   horizon answers 503 so a load balancer stops routing here, while the
   body says which degradation it is. *)
let healthz_body sv =
  if Store.read_only sv.store then
    ("503 Service Unavailable", "degraded: store read-only (write-ahead log failed)\n")
  else
    match follower_status sv with
    | Some st when st.Repl.lost ->
        ( "503 Service Unavailable",
          Printf.sprintf
            "degraded: replication lost (%d consecutive failures)\n"
            st.Repl.failures )
    | Some st ->
        ( "200 OK",
          Printf.sprintf "ok role=follower offset=%d lag=%d wal_bytes=%d\n"
            st.Repl.applied_seq st.Repl.lag (Store.wal_size sv.store) )
    | None ->
        ( "200 OK",
          Printf.sprintf "ok role=primary offset=%d lag=0 wal_bytes=%d\n"
            (Store.log_seq sv.store) (Store.wal_size sv.store) )

let handle_http sv request_line ic oc =
  Metrics.incr m_http;
  (* drain the header block; we answer from the request line alone *)
  (try
     while not (String.equal (String.trim (input_line ic)) "") do
       ()
     done
   with End_of_file | Sys_error _ -> ());
  match String.split_on_char ' ' (strip_cr request_line) with
  | meth :: path :: _ when String.equal meth "GET" || String.equal meth "HEAD"
    -> (
      match path with
      | "/metrics" ->
          http_response oc "200 OK" "text/plain; version=0.0.4"
            (Metrics.to_prometheus Metrics.default)
      | "/healthz" ->
          let status, body = healthz_body sv in
          http_response oc status "text/plain" body
      | _ -> http_response oc "404 Not Found" "text/plain" "not found\n")
  | _ -> http_response oc "400 Bad Request" "text/plain" "bad request\n"

(* --- sessions -------------------------------------------------------------- *)

let session_loop sv sess ic oc first_line =
  let rec loop line =
    (* the [server.session] chaos site: this session dies here — its
       socket closes, the rest of the server keeps serving *)
    if Fault.fire session_site then Metrics.incr m_session_faults
    else if starts_with "sync " (strip_cr line) then begin
      (* [sync] takes over the connection: the session becomes a
         replication feed and never returns to request/response *)
      Metrics.incr m_requests;
      match int_of_string_opt (String.trim (after "sync " (strip_cr line))) with
      | Some a when a >= 0 ->
          (* the session becomes a long-lived feed: log the takeover now,
             since this command never "completes" in the access-log
             sense (no span either — it would stay open for the feed's
             whole life) *)
          access_line sv ~sid:sess.s_id
            ~req:(Atomic.fetch_and_add sv.next_req 1)
            ~cmd:"sync" ~dur_us:0 ~outcome:"ok";
          Repl.serve_sync ~store:sv.store ~params:sv.cfg.repl_params
            ~stopping:(fun () -> sv.stopping)
            ~after:a oc
      | _ ->
          output_string oc "err proto: sync expects a non-negative log offset\n";
          flush oc;
          loop (input_line ic)
    end
    else
      match respond sv sess line with
      | None ->
          output_string oc "ok bye\n";
          flush oc
      | Some reply ->
          output_string oc reply;
          output_string oc "\n";
          flush oc;
          loop (input_line ic)
  in
  loop first_line

let handle_conn sv id fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let sess =
    {
      s_id = id;
      s_limits = { Budget.default with Budget.fuel = sv.cfg.default_fuel };
      s_engine = sv.cfg.engine;
      s_mode = sv.cfg.optimize;
    }
  in
  (try
     let first = input_line ic in
     if
       starts_with "GET " first || starts_with "HEAD " first
       || starts_with "POST " first
     then handle_http sv first ic oc
     else session_loop sv sess ic oc first
   with
  | End_of_file | Sys_error _ -> ()
  | Unix.Unix_error _ -> ());
  registry_close sv id

(* --- accept loop / lifecycle ----------------------------------------------- *)

let accept_loop sv =
  while not sv.stopping do
    match Unix.accept sv.listen_fd with
    | fd, _ ->
        if Fault.fire accept_site then begin
          (* injected accept failure: drop the connection on the floor *)
          Metrics.incr m_session_faults;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          Metrics.incr m_sessions;
          Mutex.lock sv.reg_mu;
          let id = sv.next_id in
          sv.next_id <- id + 1;
          (* registered before the thread starts so [stop] always sees it *)
          let th = Thread.create (fun () -> handle_conn sv id fd) () in
          Hashtbl.replace sv.reg id (fd, th);
          Metrics.set_gauge g_open_sessions
            (float_of_int (Hashtbl.length sv.reg));
          Mutex.unlock sv.reg_mu
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* the listener was closed under us (stop), or a transient accept
           failure: spin once more — the loop condition decides *)
        if not sv.stopping then Thread.yield ()
  done

let start cfg =
  match
    (* a server hosts concurrent evaluations: pin the capture's trace id
       so per-run Obs.set_trace_id calls can't flip the pid mid-span;
       requests are told apart by their req args, not by pid *)
    if Obs.on () then Obs.pin_trace_id 1;
    let open_log path =
      open_out_gen [ Open_append; Open_creat ] 0o644 path
    in
    let access_oc = Option.map open_log cfg.access_log in
    let slow_oc = Option.map open_log cfg.slow_log in
    let store =
      Store.open_store ~compact_bytes:cfg.compact_bytes ~seed:cfg.seed_db
        ~dir:cfg.store_dir ()
    in
    (* a client that vanishes mid-response must surface as EPIPE on the
       write, not kill the process *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
       Unix.listen fd 64
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       Store.close store;
       raise e);
    let bound_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> cfg.port
    in
    let sv =
      {
        cfg;
        store;
        cache = Cache.create ~capacity:cfg.cache_capacity ();
        exec =
          Exec.create ~ceiling:cfg.ceiling ~max_queue:cfg.max_queue
            ~workers:cfg.workers ();
        listen_fd = fd;
        bound_port;
        accept_thread = None;
        reg_mu = Mutex.create ();
        reg = Hashtbl.create 32;
        next_id = 1;
        stopping = false;
        stopped = false;
        stop_mu = Mutex.create ();
        stop_cv = Condition.create ();
        role_mu = Mutex.create ();
        role = (match cfg.follow with None -> `Primary | Some _ -> `Follower);
        follower = None;
        next_req = Atomic.make 1;
        log_mu = Mutex.create ();
        access_oc;
        slow_oc;
      }
    in
    (match cfg.follow with
    | None -> Metrics.set_gauge g_role 1.
    | Some (h, p) ->
        Metrics.set_gauge g_role 0.;
        sv.follower <-
          Some (Repl.start ~store ~host:h ~port:p ~params:cfg.repl_params));
    sv.accept_thread <- Some (Thread.create (fun () -> accept_loop sv) ());
    sv
  with
  | sv -> Ok sv
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Bagdb.Db_error e ->
      Error ("store recovery failed: " ^ Bagdb.error_to_string e)
  | exception Sys_error msg -> Error msg

let port sv = sv.bound_port
let store sv = sv.store

let sessions_served sv =
  Mutex.lock sv.reg_mu;
  let n = sv.next_id - 1 in
  Mutex.unlock sv.reg_mu;
  n

let stop sv =
  Mutex.lock sv.stop_mu;
  let already = sv.stopped || sv.stopping in
  sv.stopping <- true;
  Mutex.unlock sv.stop_mu;
  if not already then begin
    (* wake the accept loop: on Linux a close alone does NOT interrupt a
       thread blocked in accept(2) — shutdown on the listening socket
       does, making the blocked accept return EINVAL *)
    (try Unix.shutdown sv.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close sv.listen_fd with Unix.Unix_error _ -> ());
    Option.iter Thread.join sv.accept_thread;
    (* close every client socket: blocked session reads fail, blocked
       submits drain through the executor shutdown below *)
    Mutex.lock sv.reg_mu;
    let ids = Hashtbl.fold (fun id _ acc -> id :: acc) sv.reg [] in
    let threads = Hashtbl.fold (fun _ (_, th) acc -> th :: acc) sv.reg [] in
    Mutex.unlock sv.reg_mu;
    List.iter (registry_close sv) ids;
    (* stop the follower before the store it writes into goes away *)
    Mutex.lock sv.role_mu;
    let f = sv.follower in
    sv.follower <- None;
    Mutex.unlock sv.role_mu;
    Option.iter Repl.stop f;
    Exec.shutdown sv.exec;
    List.iter Thread.join threads;
    Store.close sv.store;
    (* sessions are joined: the log channels have no writers left *)
    Option.iter close_out_noerr sv.access_oc;
    Option.iter close_out_noerr sv.slow_oc;
    Mutex.lock sv.stop_mu;
    sv.stopped <- true;
    Condition.broadcast sv.stop_cv;
    Mutex.unlock sv.stop_mu
  end

let wait sv =
  Mutex.lock sv.stop_mu;
  while not sv.stopped do
    Condition.wait sv.stop_cv sv.stop_mu
  done;
  Mutex.unlock sv.stop_mu
