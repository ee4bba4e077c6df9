(* The three traffic mixes: their stores, query pools and request streams,
   all deterministic functions of the seed.

   Every mix carries every operation class (hot-pool reads, fresh-literal
   reads, defs), so every gated metric is measured on every workload; the
   shares differ so that each mix stresses its own layers.  Reads never
   touch a relation the mix writes unless the oracle lists every version
   that relation can hold ([versions]). *)

open Balg
module Bagdb = Baglang.Bagdb

type cls = Hot | Fresh | Write | Control

(* [shape] tells apart requests of one class whose costs differ by
   design (query templates, the three heavy kernels): latencies are
   summarised per shape first, so that the mix's proportions in one run
   cannot move a median from one shape's cost to another's. *)
type req = { cls : cls; shape : int; line : string }

type t = {
  clients : int;
  settings : string list;  (** lines every session sends before its load *)
  snapshot : Bagdb.t;  (** the store's snapshot.bagdb *)
  wal_tail : Bagdb.t;  (** defs logged after the snapshot, replayed at start *)
  versions : (string * Ty.t * Value.t array) list;
      (** relations the mix writes, with every value each can hold *)
  hot : string array;  (** the hot query pool; text [i] has shape [i mod templates] *)
  shares : float * float;  (** hot and fresh shares; the rest are defs *)
  fresh : Random.State.t -> int -> int * string;  (** shape and query text with literal [k] *)
}

let names = [ "small_read"; "heavy_eval"; "write_mix" ]
let bin_ty = Ty.relation 2
let atom fmt = Printf.ksprintf Value.atom fmt
let pair a b = Value.tuple [ a; b ]

(* A binary relation of [size] random tuples over [n_atoms] constants. *)
let rel rng ~n_atoms ~size =
  Baggen.Genval.flat_bag rng ~n_atoms ~arity:2 ~size ~max_count:3

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let pick rng a = a.(Random.State.int rng (Array.length a))

(* Cold catalog bulk: relations no request reads.  They make snapshot
   load and WAL replay long enough to time (set-up is gated). *)
let cold rng ~count ~size =
  List.init count (fun i ->
      (Printf.sprintf "Z%03d" i, bin_ty, rel rng ~n_atoms:64 ~size))

(* Query templates over binary relations; every one yields a binary
   relation, so a fresh literal can be added to any of them.  Pools take
   template [j mod templates] for their [j]th text, so every seed's pool
   has the same mix of shapes. *)
let templates = 9

let template rng j x y =
  match j mod templates with
  | 0 -> x
  | 1 -> Printf.sprintf "select(t -> t.1 == t.2, %s)" x
  | 2 -> Printf.sprintf "pi[2,1](%s)" x
  | 3 -> Printf.sprintf "%s ++ %s" x y
  | 4 -> Printf.sprintf "%s \\/ %s" x y
  | 5 -> Printf.sprintf "%s /\\ %s" x y
  | 6 -> Printf.sprintf "dedup(%s)" x
  | 7 -> Printf.sprintf "%s -- %s" x y
  | _ -> Printf.sprintf "select(t -> t.1 == '%s, %s)" (Baggen.Genval.atom_name (Random.State.int rng 24)) x

let with_literal q k = Printf.sprintf "(%s) ++ {{<'q%d, 'q%d>}}" q k k

(* small_read: a catalog of 256 small relations, each request touching
   one or two; writes replace side relations no read touches. *)
let small_read seed =
  let rng = Random.State.make [| seed; 1 |] in
  let cat =
    Array.init 256 (fun i ->
        (Printf.sprintf "T%03d" i, bin_ty, rel rng ~n_atoms:24 ~size:32))
  in
  let side = List.init 4 (fun i -> Printf.sprintf "W%d" i) in
  let versions =
    List.map (fun n -> (n, bin_ty, Array.init 4 (fun _ -> rel rng ~n_atoms:24 ~size:16))) side
  in
  let snapshot =
    Array.to_list cat
    @ List.map (fun (n, ty, vs) -> (n, ty, vs.(0))) versions
    @ cold rng ~count:36 ~size:1500
  in
  (* the WAL tail redefines the first 64 catalog relations *)
  let wal_tail =
    List.init 64 (fun i ->
        (Printf.sprintf "T%03d" i, bin_ty, rel rng ~n_atoms:24 ~size:32))
  in
  let cat_names = Array.map (fun (n, _, _) -> n) cat in
  let q rng j = template rng j (pick rng cat_names) (pick rng cat_names) in
  {
    clients = 1;
    settings = [];
    snapshot;
    wal_tail;
    versions;
    hot = Array.init 128 (q rng);
    shares = (0.47, 0.47);
    fresh =
      (fun rng k ->
        let j = Random.State.int rng templates in
        (j, with_literal (q rng j) k));
  }

(* heavy_eval: kernels dominate — a select-over-product join of two
   300-row relations, a deduplicated closure over a 12-node cycle and the
   powerset of a 10-element set.  Their shapes are fixed; the seed only
   renames atoms and draws multiplicities, so every seed costs the same.
   The hot pool is three spellings of the join, whose cached ~20 KB reply
   is re-rendered on every hit. *)
let heavy_queries =
  [|
    "pi[1,4](select(p -> p.2 == p.3, A * B))";
    "fix(X -> dedup(pi[1,4](select(p -> p.2 == p.3, X * G)) \\/ X), G)";
    "pi[1,1](destroy(powerset(P)))";
  |]

let heavy_hot =
  [|
    "pi[1,4](select(p -> p.2 == p.3, A * B))";
    "pi[1,4](select(p -> p.3 == p.2, A * B))";
    "pi[4,1](select(p -> p.2 == p.3, A * B))";
  |]

let heavy_eval seed =
  let rng = Random.State.make [| seed; 2 |] in
  let keys = shuffle rng (Array.init 60 (fun i -> atom "k%d" i)) in
  let count () = Bignat.of_int (1 + Random.State.int rng 2) in
  let a =
    Value.bag_of_assoc (List.init 300 (fun i -> (pair (atom "a%d" i) keys.(i mod 60), count ())))
  in
  let b =
    Value.bag_of_assoc (List.init 300 (fun i -> (pair keys.(i mod 60) (atom "b%d" i), count ())))
  in
  let nodes = shuffle rng (Array.init 12 (fun i -> atom "n%d" i)) in
  let g = Value.bag_of_list (List.init 12 (fun i -> pair nodes.(i) nodes.((i + 1) mod 12))) in
  let p = Value.bag_of_list (List.init 10 (fun i -> Value.tuple [ atom "e%d" i ])) in
  let side = [ "W0"; "W1" ] in
  let versions =
    List.map (fun n -> (n, bin_ty, Array.init 4 (fun _ -> rel rng ~n_atoms:24 ~size:16))) side
  in
  let snapshot =
    [ ("A", bin_ty, a); ("B", bin_ty, b); ("G", bin_ty, g); ("P", Ty.relation 1, p) ]
    @ List.map (fun (n, ty, vs) -> (n, ty, vs.(0))) versions
    @ cold rng ~count:48 ~size:1500
  in
  {
    clients = 1;
    settings = [ "set engine=vec optimize=cost" ];
    snapshot;
    wal_tail = [ ("A", bin_ty, a) ];
    versions;
    hot = heavy_hot;
    shares = (0.2, 0.6);
    fresh =
      (fun rng k ->
        let j = Random.State.int rng (Array.length heavy_queries) in
        (j, with_literal heavy_queries.(j) k));
  }

(* write_mix: two clients over eight 200-row relations that the writes
   replace, each cycling through four fixed versions. *)
let write_mix seed =
  let rng = Random.State.make [| seed; 3 |] in
  let rels = Array.init 8 (fun i -> Printf.sprintf "R%d" i) in
  let versions =
    Array.to_list
      (Array.map (fun n -> (n, bin_ty, Array.init 4 (fun _ -> rel rng ~n_atoms:24 ~size:200))) rels)
  in
  let snapshot =
    List.map (fun (n, ty, vs) -> (n, ty, vs.(0))) versions @ cold rng ~count:40 ~size:1500
  in
  let q rng j =
    let x = pick rng rels in
    template rng j x x
  in
  {
    clients = 2;
    settings = [];
    snapshot;
    wal_tail = List.map (fun (n, ty, vs) -> (n, ty, vs.(1))) versions;
    versions;
    hot = Array.init 64 (q rng);
    shares = (0.7, 0.1);
    fresh =
      (fun rng k ->
        let j = Random.State.int rng templates in
        (j, with_literal (q rng j) k));
  }

let make name seed =
  match name with
  | "small_read" -> Some (small_read seed)
  | "heavy_eval" -> Some (heavy_eval seed)
  | "write_mix" -> Some (write_mix seed)
  | _ -> None

let def_line (n, ty, v) =
  Printf.sprintf "def bag %s : %s = %s" n (Ty.to_string ty) (Value.to_string v)

(* One client's request stream, a deterministic function of the seed and
   the client number.  Fresh literals are unique across clients. *)
let stream wl ~seed ~client =
  let rng = Random.State.make [| seed; 7; client |] in
  let writes = Array.of_list (List.map (fun (n, ty, vs) -> Array.map (fun v -> def_line (n, ty, v)) vs) wl.versions) in
  let written = Array.make (Array.length writes) 0 in
  let k = ref 0 in
  fun () ->
    incr k;
    let hot, fresh = wl.shares in
    let u = Random.State.float rng 1.0 in
    if u < hot then
      let i = Random.State.int rng (Array.length wl.hot) in
      { cls = Hot; shape = i mod templates; line = "eval " ^ wl.hot.(i) }
    else if u < hot +. fresh then
      let shape, q = wl.fresh rng ((!k * 4) + client) in
      { cls = Fresh; shape; line = "eval " ^ q }
    else
      let r = Random.State.int rng (Array.length writes) in
      written.(r) <- written.(r) + 1;
      { cls = Write; shape = 0; line = writes.(r).(written.(r) mod 4) }
