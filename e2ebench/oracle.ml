(* The reply oracle: every reply a correct server may give to a request
   line, computed in-process with the reference tree engine over each
   store version the request may see. *)

open Balg
module Bagdb = Baglang.Bagdb
module Parser = Baglang.Parser

(* The server renders each reply on one line. *)
let one_line = String.map (function '\n' | '\r' -> ' ' | c -> c)

type t = {
  db : Bagdb.t;  (** the store as recovered at start *)
  versions : (string * Ty.t * Value.t array) list;
  memo : (string, string list) Hashtbl.t;  (** replies by request line *)
  bases : (string, Value.t) Hashtbl.t;  (** values by (world, term) *)
}

(* What recovery must rebuild: the snapshot with the WAL tail's defs
   applied in order, a def replacing in place. *)
let recovered (wl : Workload.t) =
  List.fold_left
    (fun db (n, ty, v) ->
      if List.exists (fun (m, _, _) -> String.equal m n) db then
        List.map (fun ((m, _, _) as d) -> if String.equal m n then (n, ty, v) else d) db
      else db @ [ (n, ty, v) ])
    wl.Workload.snapshot wl.wal_tail

let create wl =
  { db = recovered wl; versions = wl.Workload.versions; memo = Hashtbl.create 1024; bases = Hashtbl.create 256 }

(* Every assignment of versions to the written relations [e] reads, as
   (relation, version index) pairs. *)
let worlds o e =
  let fv = Expr.free_vars e in
  List.fold_left
    (fun acc (n, _, vs) ->
      if Expr.Vars.mem n fv then List.concat_map (fun w -> List.init (Array.length vs) (fun i -> (n, i) :: w)) acc
      else acc)
    [ [] ] o.versions

let run env e =
  match Eval.run ~limits:Budget.unlimited env e with
  | Ok v -> v
  | Error x -> failwith ("oracle: reference verdict: " ^ Budget.exhaustion_to_string x)

(* A fresh-literal query is [base ++ literal]: the tree engine evaluates
   each base once per world and the union with the literal per request,
   which is what evaluating the whole query computes. *)
let eval_world o world e =
  let env =
    Eval.env_of_list
      (List.map
         (fun (n, _, v) ->
           match List.assoc_opt n world with
           | Some i ->
               let _, _, vs = List.find (fun (m, _, _) -> String.equal m n) o.versions in
               (n, vs.(i))
           | None -> (n, v))
         o.db)
  in
  match e with
  | Expr.UnionAdd (base, (Expr.Lit _ as lit)) ->
      let key = String.concat "," (List.map (fun (n, i) -> Printf.sprintf "%s=%d" n i) world) ^ "|" ^ Expr.to_string base in
      let b =
        match Hashtbl.find_opt o.bases key with
        | Some b -> b
        | None ->
            let b = run env base in
            Hashtbl.replace o.bases key b;
            b
      in
      run (Eval.Env.add "%base" b env) (Expr.UnionAdd (Expr.Var "%base", lit))
  | _ -> run env e

let eval_replies o q =
  let e = Parser.expr_of_string q in
  let ty = Typecheck.infer (Bagdb.type_env o.db) e in
  List.sort_uniq String.compare
    (List.map
       (fun world -> one_line (Printf.sprintf "ok %s : %s" (Value.to_string (eval_world o world e)) (Ty.to_string ty)))
       (worlds o e))

let prefixed p s = String.length s >= String.length p && String.equal (String.sub s 0 (String.length p)) p

let expected o line =
  match Hashtbl.find_opt o.memo line with
  | Some r -> r
  | None ->
      let r =
        if prefixed "eval " line then eval_replies o (String.sub line 5 (String.length line - 5))
        else if prefixed "def bag " line then
          let rest = String.sub line 8 (String.length line - 8) in
          [ "ok defined " ^ String.trim (List.hd (String.split_on_char ':' rest)) ]
        else if prefixed "set " line then [ "ok" ]
        else failwith ("oracle: unexpected request " ^ line)
      in
      Hashtbl.replace o.memo line r;
      r

let accepts o line reply = List.exists (String.equal reply) (expected o line)
