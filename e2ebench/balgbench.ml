(* balgbench — the end-to-end benchmark of balgd.

     balgbench.exe --workload W --seed N --seconds S --trace 0|1
                   --balgd PATH --work DIR

   Generates the workload's store from the seed, starts balgd on fresh
   copies of it (set-up is timed from spawn to the first pong, eleven
   times), drives the workload's clients closed-loop, untimed for two
   seconds and then timed for S, and checks every reply against the
   reference-engine oracle.
   With --trace 1 it then replays the same request stream in-process with
   a span around every layer call (see replay.ml), checks the replay
   against a fresh server byte for byte, and reports per-layer figures.
   The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

module Store = Balgserver.Store
module Client = Balgserver.Client

(* set-up is timed on this many fresh starts before the load and this
   many after it, so that its median spans the run *)
let setups_before = 6
let setups_after = 5

(* untimed load before the timed phase, so that the result cache and
   the heaps have settled when timing starts *)
let warm_seconds = 2.

let drift_lines = 300
let drift_seconds = 3.

(* --- files ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let copy_dir src dst =
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let data = Wire.read_file (Filename.concat src f) in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc -> output_string oc data))
    (Sys.readdir src)

(* snapshot.bagdb, then the WAL tail appended as framed records; the
   threshold keeps compaction from folding the tail away *)
let write_fixture (wl : Workload.t) dir =
  let st = Store.open_store ~compact_bytes:max_int ~seed:wl.snapshot ~dir:(Some dir) () in
  List.iter
    (fun (n, ty, v) -> match Store.apply st (Store.Def (n, ty, v)) with Ok () -> () | Error e -> failwith e)
    wl.wal_tail;
  Store.close st

let same_files a b =
  let names d = List.sort compare (Array.to_list (Sys.readdir d)) in
  names a = names b
  && List.for_all (fun f -> String.equal (Wire.read_file (Filename.concat a f)) (Wire.read_file (Filename.concat b f))) (names a)

(* --- statistics ----------------------------------------------------------- *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let us ns = float_of_int ns /. 1e3

(* --- the run ---------------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  balgd : string;
  work : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let balgd = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workload.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed phase length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--balgd", Arg.Set_string balgd, "PATH the server binary");
      ("--work", Arg.Set_string work, "DIR scratch directory (emptied first)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "balgbench.exe --workload W --seed N --seconds S --trace 0|1 --balgd PATH --work DIR";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    balgd = !balgd;
    work = !work;
  }

let is_read (r : Wire.record) = match r.req.cls with Hot | Fresh -> true | Write | Control -> false
let latency_us (r : Wire.record) = us (r.t_done - r.t_send)

let is_failure (r : Wire.record) =
  match r.reply with
  | Error _ -> true
  | Ok s -> not (Oracle.prefixed "ok" s)

type wire_run = {
  setup_s : float list;
  warm : Wire.record list;
  timed : Wire.record list;
  cpu_s : float;  (** server CPU seconds over the timed phase *)
  rss_mb : float;
  counters : (string * float) list;  (** deltas over the timed phase *)
}

let counter_names =
  [ "balg_server_cache_hits_total"; "balg_server_cache_misses_total"; "balg_server_compactions_total" ]

let wire_run a (wl : Workload.t) ~fixture =
  let spawn i =
    let store = Filename.concat a.work (Printf.sprintf "store%d" i) in
    copy_dir fixture store;
    Wire.spawn ~exe:a.balgd ~store
  in
  let time_setup i =
    let sv, s = spawn i in
    Wire.stop sv;
    s
  in
  let before = List.init (setups_before - 1) (fun i -> time_setup (i + 1)) in
  let sv, s = spawn setups_before in
  let conns = List.init wl.clients (fun _ -> Wire.connect sv) in
  let preamble = Wire.warm_up wl conns in
  let c0 = ref [] and cpu0 = ref 0. in
  let records =
    Wire.drive wl ~seed:a.seed ~warm_seconds ~seconds:a.seconds
      ~at_start:(fun () ->
        c0 := Wire.counters sv counter_names;
        cpu0 := Wire.cpu_s sv)
      conns
  in
  let cpu1 = Wire.cpu_s sv in
  let c1 = Wire.counters sv counter_names in
  let warm, timed = List.partition (fun (r : Wire.record) -> not r.timed) records in
  let rss_mb = Wire.peak_rss_mb sv in
  List.iter Client.close conns;
  Wire.stop sv;
  let after = List.init setups_after (fun i -> time_setup (setups_before + 1 + i)) in
  {
    setup_s = before @ (s :: after);
    warm = preamble @ warm;
    timed;
    cpu_s = cpu1 -. !cpu0;
    rss_mb;
    counters = List.map2 (fun (n, x) (_, y) -> (n, y -. x)) !c0 c1;
  }

(* Every ok reply must be one the oracle allows; err, verdict and
   transport errors are counted as failed instead. *)
let check_replies oracle records =
  List.filter
    (fun (r : Wire.record) ->
      match r.reply with
      | Ok s when Oracle.prefixed "ok" s ->
          let ok = Oracle.accepts oracle r.req.line s in
          if not ok then Printf.eprintf "MISMATCH on %s\n  got %s\n" r.req.line s;
          not ok
      | Ok _ | Error _ -> false)
    records
  |> List.length

(* A class's latency: the median of each shape's timed requests, averaged
   over the shapes.  A plain median over a mix of shapes that cost
   different amounts falls in the gap between two of them, where a few
   requests more or less of one shape move it far. *)
let shape_p50 timed cls =
  let by_shape = Hashtbl.create 16 in
  List.iter
    (fun (r : Wire.record) ->
      if r.req.cls = cls then
        Hashtbl.replace by_shape r.req.shape
          (latency_us r :: Option.value ~default:[] (Hashtbl.find_opt by_shape r.req.shape)))
    timed;
  let medians = Hashtbl.fold (fun _ xs acc -> median xs :: acc) by_shape [] in
  List.fold_left ( +. ) 0. medians /. float_of_int (max 1 (List.length medians))

let end_to_end w =
  let p50 = shape_p50 w.timed in
  [
    ("setup_s", median w.setup_s, "s");
    ("read_hot_p50_us", p50 Hot, "us");
    ("read_fresh_p50_us", p50 Fresh, "us");
    ("write_p50_us", p50 Write, "us");
    ("cpu_us_per_op", w.cpu_s *. 1e6 /. float_of_int (max 1 (List.length w.timed)), "us");
    ("peak_rss_mb", w.rss_mb, "MB");
  ]

(* --- the traced replay ------------------------------------------------------ *)

(* Replay the first requests of the merged stream on a fresh server over
   one connection: the replay's replies must match byte for byte. *)
let drift_check a ~fixture lines (steps : Replay.step list) =
  let store = Filename.concat a.work "store-drift" in
  copy_dir fixture store;
  let sv, _ = Wire.spawn ~exe:a.balgd ~store in
  let c = Wire.connect sv in
  let deadline = Wire.now_ns () + int_of_float (drift_seconds *. 1e9) in
  let rec go n lines steps =
    match (lines, steps) with
    | (_, line) :: lines, (s : Replay.step) :: steps when n < drift_lines && Wire.now_ns () < deadline ->
        let reply = Client.request c line in
        if reply <> Ok s.reply then begin
          Printf.eprintf "DRIFT on %s\n  wire   %s\n  replay %s\n" line
            (match reply with Ok r -> r | Error e -> "transport error: " ^ e)
            s.reply;
          false
        end
        else go (n + 1) lines steps
    | _ -> true
  in
  let ok = go 0 lines steps in
  Client.close c;
  Wire.stop sv;
  ok

let per_layer a ~fixture w =
  let merged =
    List.stable_sort (fun (x : Wire.record) (y : Wire.record) -> compare x.t_send y.t_send) (w.warm @ w.timed)
  in
  let lines = List.map (fun (r : Wire.record) -> (r.client, r.req.line)) merged in
  let replay traced =
    let dir = Filename.concat a.work (if traced then "store-traced" else "store-untraced") in
    copy_dir fixture dir;
    Replay.run ~traced ~store_dir:dir lines
  in
  let untraced = replay false in
  let traced = replay true in
  let same_replies = List.for_all2 (fun (x : Replay.step) (y : Replay.step) -> String.equal x.reply y.reply) untraced traced in
  let drift_ok = drift_check a ~fixture lines untraced in
  let flags = Array.of_list (List.map (fun (r : Wire.record) -> r.timed) merged) in
  let timed_of steps = List.filteri (fun i _ -> flags.(i)) steps in
  let timed_pairs = List.combine merged untraced |> List.filter (fun ((r : Wire.record), _) -> r.timed) in
  let ttraced = timed_of traced in
  let sum_errors = ref 0 in
  let selfs = Hashtbl.create 32 and counts = Hashtbl.create 32 in
  let add tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (s : Replay.step) ->
      (match Replay.self_times s with
      | Ok l -> List.iter (fun (n, ns) -> add selfs n (us ns)) l
      | Error e ->
          if !sum_errors = 0 then prerr_endline ("LAYER-SUM " ^ e);
          incr sum_errors);
      List.iter (fun (n, v) -> add counts n v) s.counts)
    ttraced;
  Replay.write_chrome (Filename.concat a.work "replay_trace.json") traced;
  let get tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  let self k = median (get selfs k) and cnt k = median (get counts k) in
  let total = List.fold_left ( +. ) 0. in
  let opens =
    List.init 3 (fun i ->
        let dir = Filename.concat a.work (Printf.sprintf "store-open%d" i) in
        copy_dir fixture dir;
        let t0 = Wire.now_ns () in
        let st = Store.open_store ~compact_bytes:(1 lsl 20) ~dir:(Some dir) () in
        let t1 = Wire.now_ns () in
        Store.close st;
        float_of_int (t1 - t0) /. 1e9)
  in
  let ctr n = List.assoc n w.counters in
  let hits = ctr "balg_server_cache_hits_total" and misses = ctr "balg_server_cache_misses_total" in
  let reads = List.filter is_read w.timed and writes = List.filter (fun r -> not (is_read r)) w.timed in
  let med_total steps = median (List.map (fun (s : Replay.step) -> us s.total_ns) steps) in
  let metrics =
    [
      ("parser.parse_us", self "parser.parse", "us");
      ("typecheck.infer_us", self "typecheck.infer", "us");
      ("expr.plan_string_us", self "expr.plan_string", "us");
      ("cache.key_us", self "cache.key", "us");
      ("cache.find_us", self "cache.find", "us");
      ("cache.hit_ratio", hits /. Float.max 1. (hits +. misses), "ratio");
      ("cache.invalidate_us", self "cache.invalidate", "us");
      ("opt.optimize_us", self "opt.optimize", "us");
      ("opt.decisions", cnt "opt.decisions", "count");
      ("exec.handoff_us", self "exec.submit", "us");
      ("exec.queue_wait_us", cnt "exec.queue_wait_us", "us");
      ("bagdb.value_env_us", self "bagdb.value_env", "us");
      ("veval.run_us", self "veval.run", "us");
      ("veval.fuel", cnt "veval.fuel", "count");
      ("veval.alloc_words", cnt "veval.alloc_words", "words");
      ("value.render_us", self "value.render", "us");
      ("value.reply_bytes", cnt "value.reply_bytes", "bytes");
      ("bagdb.parse_us", self "bagdb.parse", "us");
      ("store.apply_us", self "store.apply", "us");
      ( "store.wal_bytes_per_user_byte",
        total (get counts "store.written_bytes") /. Float.max 1. (total (get counts "store.user_bytes")),
        "ratio" );
      ("store.compactions", ctr "balg_server_compactions_total", "count");
      ("store.open_s", median opens, "s");
      ( "server.unattributed_us",
        median (List.map (fun ((r : Wire.record), (s : Replay.step)) -> latency_us r -. us s.total_ns) timed_pairs),
        "us" );
      ("client.ops_s", float_of_int (List.length w.timed) /. a.seconds, "1/s");
      ("client.read_p99_us", quantile 0.99 (List.map latency_us reads), "us");
      ("client.read_samples", float_of_int (List.length reads), "count");
      ("client.write_p99_us", quantile 0.99 (List.map latency_us writes), "us");
      ("client.write_samples", float_of_int (List.length writes), "count");
      ( "trace.overhead_pct",
        100. *. (med_total ttraced -. med_total (timed_of untraced)) /. med_total (timed_of untraced),
        "%" );
    ]
  in
  let ok = same_replies && drift_ok && !sum_errors = 0 in
  if not same_replies then prerr_endline "traced and untraced replays disagree";
  if !sum_errors > 0 then Printf.eprintf "layer-sum check failed on %d requests\n" !sum_errors;
  (ok, metrics)

(* --- output ----------------------------------------------------------------- *)

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n (if Float.is_finite v then v else 0.) u)
          metrics))

let main a =
  let wl =
    match Workload.make a.workload a.seed with
    | Some wl -> wl
    | None -> failwith ("unknown workload " ^ a.workload)
  in
  rm_rf a.work;
  Sys.mkdir a.work 0o755;
  let fixture = Filename.concat a.work "fixture" in
  let again = Filename.concat a.work "fixture-again" in
  write_fixture wl fixture;
  write_fixture (Option.get (Workload.make a.workload a.seed)) again;
  let deterministic = same_files fixture again in
  if not deterministic then prerr_endline "the same seed gave different store files";
  let w = wire_run a wl ~fixture in
  let oracle = Oracle.create wl in
  let mismatches = check_replies oracle (w.warm @ w.timed) in
  let failed = List.length (List.filter is_failure w.timed) in
  let layers_ok, metrics = if a.trace then per_layer a ~fixture w else (true, end_to_end w) in
  print_result
    ~correct:(deterministic && mismatches = 0 && layers_ok)
    ~attempted:(List.length w.timed) ~failed metrics

let () =
  let a = parse_args () in
  at_exit Wire.kill_live;
  match main a with
  | () -> ()
  | exception e ->
      Printf.eprintf "balgbench: %s\n" (Printexc.to_string e);
      Wire.kill_live ();
      exit 1
