(* balgd — the concurrent bag-database server.

   One process serves many clients over a newline-delimited TCP protocol
   (plus HTTP GET /metrics and /healthz on the same port): each connection
   is a session with its own budget limits, evaluation runs only on the
   worker domains behind the fuel-ceiling admission queue, writes go
   through the write-ahead log and survive kill -9 (replayed through the
   validating loader on restart).  See lib/server/server.mli for the wire
   protocol and DESIGN.md section 14 for the architecture.

   Process-exit discipline: as in balgi, no helper calls [exit] — the
   single [exit] lives in the Cmdliner dispatch at the bottom
   (scripts/lint.sh enforces this for both binaries). *)

open Balg
module Bagdb = Baglang.Bagdb
module Server = Balgserver.Server

let load_db = function
  | None -> Ok []
  | Some path -> (
      match Bagdb.load path with
      | db -> Ok db
      | exception Bagdb.Db_error e ->
          Error ("database error: " ^ Bagdb.error_to_string e))

let apply_faults fault fault_seed =
  match fault with
  | None -> Ok ()
  | Some spec -> (
      match Fault.configure ?seed:fault_seed spec with
      | Ok () -> Ok ()
      | Error e -> Error ("bad --fault spec: " ^ e))

let parse_follow = function
  | None -> Ok None
  | Some spec -> (
      match String.rindex_opt spec ':' with
      | None -> Error "bad --follow: expected HOST:PORT"
      | Some i -> (
          let host = String.sub spec 0 i in
          let port = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && not (String.equal host "") ->
              Ok (Some (host, p))
          | _ -> Error "bad --follow: expected HOST:PORT"))

(* Written once, after the server has fully stopped — every session
   thread and worker domain has flushed its ring, so the trace is the
   complete request history of the run. *)
let write_trace path =
  match open_out path with
  | oc -> (
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Obs.Trace.to_chrome oc);
      let dropped = Obs.dropped () in
      if dropped > 0 then
        Printf.eprintf
          "balgd: trace ring overflowed: %d oldest events dropped\n" dropped;
      Ok ())
  | exception Sys_error msg -> Error msg

(* Status lines go to stdout, which whoever started balgd may have closed
   by now: a write to the broken pipe must not raise, or it would kill the
   signal-waiter thread (leaving SIGTERM blocked for good) or skip the
   trace export on the way out.  Once the reader is gone, stdout is
   pointed at /dev/null so the bytes still buffered cannot fail a later
   flush either (the at_exit one included). *)
let status fmt =
  Printf.ksprintf
    (fun s ->
      try
        print_string s;
        flush stdout
      with Sys_error _ -> (
        try
          let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          Unix.dup2 null Unix.stdout;
          Unix.close null
        with Unix.Unix_error _ -> ()))
    fmt

let run_serve host port store_dir db_path ceiling max_queue workers
    default_fuel engine optimize cache_capacity compact_bytes follow fault
    fault_seed trace_out log_json slow_log slow_ms =
  let ( let* ) r k =
    match r with
    | Ok v -> k v
    | Error msg ->
        Printf.eprintf "balgd: %s\n" msg;
        1
  in
  let* () = apply_faults fault fault_seed in
  let* seed_db = load_db db_path in
  let* follow = parse_follow follow in
  (* Tracing must be on before [Server.start]: the server pins the trace
     id for the process when it sees tracing enabled. *)
  if trace_out <> None then Obs.enable ();
  let cfg =
    {
      Server.host;
      port;
      store_dir;
      seed_db;
      ceiling;
      max_queue;
      workers;
      default_fuel;
      engine;
      optimize;
      cache_capacity;
      compact_bytes;
      follow;
      repl_params = Balgserver.Repl.default_params;
      access_log = log_json;
      slow_log;
      slow_ms;
    }
  in
  (* SIGINT/SIGTERM/SIGUSR1 handling: a deferred OCaml signal handler
     only runs at a safe point, and every server thread parks in a
     blocking C call (accept, cond-wait) — a Sys.Signal_handle would
     never fire.  Block the signals process-wide (spawned threads and
     domains inherit the mask) and take them synchronously on a
     dedicated waiter thread.  SIGUSR1 promotes a follower to primary
     and keeps waiting; SIGINT/SIGTERM stop the server. *)
  let signals = [ Sys.sigint; Sys.sigterm; Sys.sigusr1 ] in
  (try ignore (Thread.sigmask Unix.SIG_BLOCK signals)
   with Invalid_argument _ | Unix.Unix_error _ -> ());
  let* sv =
    match Server.start cfg with Ok sv -> Ok sv | Error msg -> Error msg
  in
  (* announce the bound (possibly ephemeral) port on stdout: scripts and
     the smoke test grep this line to learn where to connect *)
  status "balgd listening on %s:%d%s\n" cfg.Server.host
    (Server.port sv)
    (match cfg.Server.follow with
    | None -> ""
    | Some (h, p) -> Printf.sprintf " (follower of %s:%d)" h p);
  let _waiter =
    Thread.create
      (fun () ->
        let rec wait () =
          match Thread.wait_signal signals with
          | s when s = Sys.sigusr1 ->
              (match Server.promote sv with
              | `Promoted -> status "balgd: promoted to primary\n"
              | `Already_primary -> status "balgd: already primary\n");
              wait ()
          | _ -> Server.stop sv
          | exception Unix.Unix_error _ -> Server.stop sv
        in
        wait ())
      ()
  in
  Server.wait sv;
  status "balgd: served %d sessions, bye\n" (Server.sessions_served sv);
  match trace_out with
  | None -> 0
  | Some path -> (
      match write_trace path with
      | Ok () -> 0
      | Error msg ->
          Printf.eprintf "balgd: cannot write trace %s: %s\n" path msg;
          1)

(* --- cmdliner wiring ------------------------------------------------------ *)

open Cmdliner

let host_arg =
  Arg.(
    value
    & opt string Server.default_config.Server.host
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")

let port_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.port
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"Listen port; $(b,0) picks an ephemeral port (announced on \
              stdout).")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistence directory (snapshot.bagdb + wal.log).  Created if \
           missing; recovered through the validating loader on start — a \
           torn WAL tail is truncated, the surviving prefix replayed.  \
           Without $(docv) the store is in-memory only.")

let db_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "d"; "db" ] ~docv:"FILE"
        ~doc:
          "A .bagdb file seeding a $(i,fresh) store (ignored when the \
           store directory already holds a snapshot or WAL).")

let ceiling_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.ceiling
    & info [ "ceiling" ] ~docv:"FUEL"
        ~doc:
          "Admission ceiling: maximum aggregate fuel weight of requests \
           evaluating at once.  Requests beyond it queue (strict FIFO) or \
           are rejected ($(b,err busy)).")

let max_queue_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.max_queue
    & info [ "max-queue" ] ~docv:"N" ~doc:"Admission queue bound.")

let workers_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.workers
    & info [ "w"; "workers" ] ~docv:"N" ~doc:"Evaluation worker domains.")

let default_fuel_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.default_fuel
    & info [ "default-fuel" ] ~docv:"N"
        ~doc:
          "Per-request fuel limit for sessions that never issue \
           $(b,set fuel=...); also the request's admission weight.")

let engine_arg =
  let engine_conv = Arg.enum [ ("tree", Veval.Tree); ("vec", Veval.Vec) ] in
  Arg.(
    value
    & opt engine_conv (Veval.default_engine ())
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Default execution engine for new sessions: $(b,tree) or \
           $(b,vec).  Sessions override with $(b,set engine=...).  \
           $(b,BALG_ENGINE) sets the default.")

let optimize_arg =
  let mode_conv =
    Arg.enum [ ("off", Opt.Off); ("rules", Opt.Rules); ("cost", Opt.Cost) ]
  in
  Arg.(
    value
    & opt mode_conv (Opt.default_mode ())
    & info [ "optimize" ] ~docv:"MODE"
        ~doc:
          "Default optimizer mode for new sessions: $(b,off), $(b,rules) \
           or $(b,cost).  Sessions override with $(b,set optimize=...).  \
           $(b,BALG_OPT) sets the default.")

let cache_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.cache_capacity
    & info [ "cache" ] ~docv:"N"
        ~doc:
          "Result-cache capacity (entries).  Keys are engine, optimizer \
           mode, query text and the hashes of the referenced relations; \
           entries are invalidated per relation on write.")

let compact_bytes_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.compact_bytes
    & info [ "compact-bytes" ] ~docv:"BYTES"
        ~doc:
          "Compact the WAL into the snapshot file once it grows past \
           $(docv) bytes (also available on demand via the $(b,compact) \
           command).")

let follow_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "follow" ] ~docv:"HOST:PORT"
        ~doc:
          "Start as a read-only follower replicating from the primary at \
           $(docv): bootstrap from its snapshot, apply its shipped WAL \
           records, reconnect with capped backoff.  Promote to a writable \
           primary with the $(b,promote) command or $(b,SIGUSR1).")

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Arm fault-injection sites, e.g. \
           $(b,server.session:p=0.05,wal.append:n=3).  Server sites: \
           $(b,server.accept), $(b,server.session), $(b,server.worker), \
           $(b,wal.append), $(b,repl.ship), $(b,repl.connect), \
           $(b,repl.apply).  Overrides $(b,BALG_FAULT).")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:"Seed for probabilistic fault triggers.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable request tracing and write the Chrome trace-event JSON to \
           $(docv) at shutdown (load in Perfetto or chrome://tracing).  \
           Every protocol command is a span on its session's lane, linked \
           by request id to its queue-wait, worker-evaluation and \
           WAL-commit sub-spans.  A live snapshot is also available via \
           the $(b,trace) wire command.")

let log_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-json" ] ~docv:"FILE"
        ~doc:
          "Append a JSONL access log to $(docv): one line per protocol \
           command with session id, request id, command word, duration in \
           microseconds and outcome.")

let slow_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slow-log" ] ~docv:"FILE"
        ~doc:
          "Append a JSONL slow-query log to $(docv): every eval at or \
           above the $(b,--slow-ms) threshold is recorded with its query \
           text, chosen plan, optimizer decisions, engine labels, cache \
           outcome, queue wait, fuel spent and verdict.")

let slow_ms_arg =
  Arg.(
    value
    & opt float Server.default_config.Server.slow_ms
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:"Slow-query threshold in milliseconds (default 100).")

let serve_term =
  Term.(
    const run_serve $ host_arg $ port_arg $ store_arg $ db_arg $ ceiling_arg
    $ max_queue_arg $ workers_arg $ default_fuel_arg $ engine_arg
    $ optimize_arg $ cache_arg $ compact_bytes_arg $ follow_arg $ fault_arg
    $ fault_seed_arg $ trace_out_arg $ log_json_arg $ slow_log_arg
    $ slow_ms_arg)

let main =
  Cmd.v
    (Cmd.info "balgd" ~version:"1.2.0"
       ~doc:
         "Concurrent bag-database server: many sessions over one shared, \
          write-ahead-logged store, with per-session budgets, fuel-ceiling \
          admission control, a shared result cache and a Prometheus \
          /metrics endpoint.")
    serve_term

let () =
  Fault.init_from_env ();
  exit (Cmd.eval' main)
