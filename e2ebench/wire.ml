(* balgd as its own process: spawn on a store, time start-up to the first
   ping, drive closed-loop clients, read the server's CPU and memory from
   /proc, stop it and check its exit status. *)

module Client = Balgserver.Client

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let host = "127.0.0.1"

type server = { pid : int; port : int; log : string }

(* servers not yet stopped, killed if the benchmark exits early *)
let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let read_file path = In_channel.with_open_bin path In_channel.input_all

let announced_port out =
  let prefix = "balgd listening on " ^ host ^ ":" in
  let n = String.length prefix in
  (* only complete lines: the last piece may still be being written *)
  let lines = List.rev (List.tl (List.rev (String.split_on_char '\n' out))) in
  List.find_map
    (fun l ->
      if String.length l > n && String.equal (String.sub l 0 n) prefix then
        int_of_string_opt (String.sub l n (String.length l - n))
      else None)
    lines

let exit_status = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* Spawn [balgd] on [store], its stdout and stderr drained to files
   [store].out and [store].err (a closed pipe would kill it with EPIPE at
   shutdown).  Returns the server and the seconds from spawn to the first
   pong. *)
let spawn ~exe ~store =
  let out_path = store ^ ".out" in
  let open_log p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_out = open_log out_path and fd_err = open_log (store ^ ".err") in
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now_ns () in
  let pid =
    Unix.create_process exe
      [| exe; "--port"; "0"; "--workers"; "2"; "--store"; store |]
      fd_in fd_out fd_err
  in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  live := pid :: !live;
  let deadline = t0 + 60_000_000_000 in
  let rec wait_port () =
    match announced_port (read_file out_path) with
    | Some p -> p
    | None -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if now_ns () > deadline then failwith "balgd did not announce its port within 60 s";
            Unix.sleepf 0.001;
            wait_port ()
        | _, st ->
            live := List.filter (( <> ) pid) !live;
            failwith ("balgd died during start-up: " ^ exit_status st))
  in
  let port = wait_port () in
  let sv = { pid; port; log = store } in
  match Client.connect ~timeout_s:60. ~host ~port () with
  | Error e -> failwith ("connect: " ^ e)
  | Ok c ->
      let pong = Client.request c "ping" in
      let t1 = now_ns () in
      Client.close c;
      if pong <> Ok "ok pong" then failwith "balgd did not answer ping";
      (sv, float_of_int (t1 - t0) /. 1e9)

(* [quit] is sent by [Client.close] on every connection before this;
   SIGTERM stops the server, which must then exit 0. *)
let stop sv =
  Unix.kill sv.pid Sys.sigterm;
  let status = Unix.waitpid [] sv.pid in
  live := List.filter (( <> ) sv.pid) !live;
  match status with
  | _, Unix.WEXITED 0 -> ()
  | _, st ->
      failwith
        (Printf.sprintf "balgd stopped with %s; stderr: %s" (exit_status st)
           (read_file (sv.log ^ ".err")))

(* user+sys CPU seconds of the whole process, exited threads included:
   fields 14 and 15 of stat, in ticks of 1/100 s; the fields after the
   parenthesised command name start at field 3 *)
let cpu_s sv =
  let s = read_file (Printf.sprintf "/proc/%d/stat" sv.pid) in
  let i = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s i (String.length s - i))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let peak_rss_mb sv =
  let s = read_file (Printf.sprintf "/proc/%d/status" sv.pid) in
  let line =
    List.find (fun l -> String.length l > 6 && String.equal (String.sub l 0 6) "VmHWM:") (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* Counter values from the server's own /metrics. *)
let counters sv names =
  match Client.http_get ~timeout_s:30. ~host ~port:sv.port "/metrics" with
  | Error e -> failwith ("/metrics: " ^ e)
  | Ok body ->
      let lines = String.split_on_char '\n' body in
      List.map
        (fun n ->
          let v =
            List.find_map
              (fun l ->
                match String.split_on_char ' ' l with
                | [ m; v ] when String.equal m n -> float_of_string_opt v
                | _ -> None)
              lines
          in
          (n, Option.value ~default:0. v))
        names

type record = {
  client : int;
  req : Workload.req;
  timed : bool;  (** false for set-up lines and the cache warm-up *)
  t_send : int;
  t_done : int;
  reply : (string, string) result;
}

let connect sv =
  match Client.connect ~timeout_s:120. ~host ~port:sv.port () with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ e)

let send c ~client ~timed req =
  let t_send = now_ns () in
  let reply = Client.request c req.Workload.line in
  { client; req; timed; t_send; t_done = now_ns (); reply }

(* Untimed preamble: each session's settings, then one pass over the hot
   pool so that hot reads start from a warm cache. *)
let warm_up (wl : Workload.t) conns =
  let ctl line = { Workload.cls = Control; shape = 0; line } in
  let settings =
    List.concat (List.mapi (fun i c -> List.map (fun l -> send c ~client:i ~timed:false (ctl l)) wl.settings) conns)
  in
  settings
  @ Array.to_list
      (Array.map (fun q -> send (List.hd conns) ~client:0 ~timed:false (ctl ("eval " ^ q))) wl.hot)

(* Closed loop: each client sends its next request once the previous
   reply is in.  The first [warm_seconds] are untimed, so that the result
   cache and the heaps reach their steady state; the next [seconds] are
   timed, and [at_start] runs when timing starts.  Records come back in
   send order. *)
let drive (wl : Workload.t) ~seed ~warm_seconds ~seconds ~at_start conns =
  let t0 = now_ns () + int_of_float (warm_seconds *. 1e9) in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let results = Array.make (List.length conns) [] in
  let threads =
    List.mapi
      (fun i c ->
        Thread.create
          (fun () ->
            let next = Workload.stream wl ~seed ~client:i in
            let rec loop acc =
              let now = now_ns () in
              if now >= deadline then acc else loop (send c ~client:i ~timed:(now >= t0) (next ()) :: acc)
            in
            results.(i) <- List.rev (loop []))
          ())
      conns
  in
  let wait = t0 - now_ns () in
  if wait > 0 then Thread.delay (float_of_int wait /. 1e9);
  at_start ();
  List.iter Thread.join threads;
  let by_send (x : record) (y : record) = compare x.t_send y.t_send in
  List.stable_sort by_send (List.concat (Array.to_list results))
