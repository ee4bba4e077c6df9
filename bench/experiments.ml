(* The experiment harness: regenerates every table, the figure, and every
   quantitative claim of the paper (see DESIGN.md §4 and EXPERIMENTS.md).
   Each experiment prints a self-contained section with the paper's value
   next to the measured one. *)

open Balg
module B = Bignat
module Tm = Turing.Tm

let section id title source =
  Printf.printf "\n=== %s — %s (%s) ===\n" id title source

let check_mark ok = if ok then "ok" else "MISMATCH"

let ev ?config ?(env = []) e = Eval.eval ?config (Eval.env_of_list env) e

let rel1 l = Value.bag_of_list (List.map (fun x -> Value.tuple [ Value.atom x ]) l)

(* ------------------------------------------------------------------ E1 *)

let e01_powerset_vs_powerbag () =
  section "E1" "powerset vs powerbag cardinality" "§1/§5";
  Printf.printf "%4s | %12s %12s | %18s %18s\n" "n" "card P(b_n)" "paper: n+1"
    "card Pb(b_n)" "paper: 2^n";
  List.iter
    (fun n ->
      let bn = Value.replicate (B.of_int n) (Value.atom "a") in
      let p = Value.cardinal (Bag.powerset bn) in
      let pb = Value.cardinal (Bag.powerbag bn) in
      Printf.printf "%4d | %12s %12d | %18s %18s  %s\n" n (B.to_string p) (n + 1)
        (B.to_string pb)
        (B.to_string (B.pow2 n))
        (check_mark (B.equal p (B.of_int (n + 1)) && B.equal pb (B.pow2 n))))
    [ 0; 1; 2; 4; 8; 12; 16 ]

(* ------------------------------------------------------------------ E2 *)

let e02_duplicate_explosion () =
  section "E2" "duplicate creation by P and delta" "Prop 3.2";
  Printf.printf "per-constant occurrences in delta(P(B)), B = k constants x m \
                 copies\n";
  Printf.printf "%3s %3s | %16s | %16s\n" "k" "m" "measured" "m(m+1)^k/2";
  List.iter
    (fun (k, m) ->
      let b =
        Value.bag_of_assoc
          (List.init k (fun i -> (Value.atom (Printf.sprintf "x%d" i), B.of_int m)))
      in
      let dp = Bag.destroy (Bag.powerset b) in
      let measured = Value.count_in (Value.atom "x0") dp in
      let formula = B.div (B.mul (B.of_int m) (B.pow (B.of_int (m + 1)) k)) B.two in
      Printf.printf "%3d %3d | %16s | %16s  %s\n" k m (B.to_string measured)
        (B.to_string formula)
        (check_mark (B.equal measured formula)))
    [ (1, 1); (1, 4); (2, 2); (2, 4); (3, 2); (4, 1); (3, 3) ];
  Printf.printf "\nper-constant occurrences in delta(delta(P(P(B))))\n";
  Printf.printf "%3s %3s | %28s | %28s\n" "k" "m" "measured"
    "2^((m+1)^k - 2) (m+1)^k m";
  List.iter
    (fun (k, m) ->
      let b =
        Value.bag_of_assoc
          (List.init k (fun i -> (Value.atom (Printf.sprintf "x%d" i), B.of_int m)))
      in
      let v = Bag.destroy (Bag.destroy (Bag.powerset (Bag.powerset b))) in
      let measured = Value.count_in (Value.atom "x0") v in
      let n = B.to_int_exn (B.pow (B.of_int (m + 1)) k) in
      let formula = B.mul (B.pow2 (n - 2)) (B.mul (B.of_int n) (B.of_int m)) in
      Printf.printf "%3d %3d | %28s | %28s  %s\n" k m (B.to_string measured)
        (B.to_string formula)
        (check_mark (B.equal measured formula)))
    [ (1, 1); (1, 2); (2, 1); (1, 3); (2, 2) ]

(* ------------------------------------------------------------------ E3 *)

let e03_aggregates () =
  section "E3" "aggregate functions through the algebra" "§3";
  let rng = Random.State.make [| 31 |] in
  Printf.printf "%20s | %8s %8s | %s\n" "bag of integers" "algebra" "direct" "";
  let trials =
    List.init 6 (fun _ ->
        List.init (1 + Random.State.int rng 5) (fun _ -> Random.State.int rng 9))
  in
  List.iter
    (fun ints ->
      let bag = Expr.lit (Value.bag_of_list (List.map Value.nat ints)) (Ty.Bag Ty.nat) in
      let alg_sum = B.to_int_exn (Value.nat_value (ev (Derived.sum bag))) in
      let direct_sum = List.fold_left ( + ) 0 ints in
      let alg_cnt = B.to_int_exn (Value.nat_value (ev (Derived.ones bag))) in
      let alg_favg = B.to_int_exn (Value.nat_value (ev (Derived.floor_average bag))) in
      let direct_favg =
        if ints = [] then 0 else direct_sum / List.length ints
      in
      Printf.printf "%20s | sum %4d %4d avg %2d %2d count %d %d  %s\n"
        (String.concat "," (List.map string_of_int ints))
        alg_sum direct_sum alg_favg direct_favg alg_cnt (List.length ints)
        (check_mark
           (alg_sum = direct_sum && alg_favg = direct_favg
           && alg_cnt = List.length ints)))
    trials

(* ------------------------------------------------------------------ E4 *)

let e04_identities () =
  section "E4" "operator inter-definability" "§3 / Prop 3.1";
  let rng = Random.State.make [| 17 |] in
  let trials = 300 in
  let rate name f =
    let ok = ref 0 in
    for _ = 1 to trials do
      if f rng then incr ok
    done;
    Printf.printf "  %-44s %4d/%d  %s\n" name !ok trials
      (check_mark (!ok = trials))
  in
  let rand_bag ?(arity = 1) rng =
    Baggen.Genval.flat_bag rng ~n_atoms:4 ~arity ~size:5 ~max_count:3
  in
  rate "union-add from max-union" (fun rng ->
      let x = rand_bag ~arity:2 rng and y = rand_bag ~arity:2 rng in
      let l v = Expr.lit v (Ty.relation 2) in
      Value.equal (ev (Derived.unionadd_via_max ~arity:2 (l x) (l y))) (Bag.union_add x y));
  rate "subtraction from powerset" (fun rng ->
      let x = rand_bag rng and y = rand_bag rng in
      let l v = Expr.lit v (Ty.relation 1) in
      Value.equal (ev (Derived.diff_via_powerset (l x) (l y))) (Bag.diff x y));
  rate "dedup from powerset (flat)" (fun rng ->
      let x = rand_bag ~arity:2 rng in
      Value.equal
        (ev (Derived.dedup_via_powerset_flat (Expr.lit x (Ty.relation 2))))
        (Bag.dedup x));
  rate "dedup from powerset (nested)" (fun rng ->
      let x = rand_bag rng and y = rand_bag rng in
      let nested = Value.bag_of_assoc [ (x, B.of_int 2); (y, B.one) ] in
      Value.equal
        (ev (Derived.dedup_via_powerset_nested (Expr.lit nested (Ty.Bag (Ty.relation 1)))))
        (Bag.dedup nested))

(* ------------------------------------------------------------------ E5 *)

let e05_selfjoin_table () =
  section "E5" "the worked occurrence-count table" "§4";
  Printf.printf "Q(B) = pi_{1,4}(sigma_{2=3}(B x B)), B = n x <a,b> ++ m x <b,a>\n";
  Printf.printf "%3s %3s | %6s %6s %6s %6s | paper: ab,ba -> 0; aa,bb -> nm\n"
    "n" "m" "ab" "ba" "aa" "bb";
  List.iter
    (fun (n, m) ->
      let b =
        Value.bag_of_assoc
          [
            (Value.tuple [ Value.atom "a"; Value.atom "b" ], B.of_int n);
            (Value.tuple [ Value.atom "b"; Value.atom "a" ], B.of_int m);
          ]
      in
      let q = ev (Derived.selfjoin (Expr.lit b (Ty.relation 2))) in
      let c x y =
        B.to_int_exn (Value.count_in (Value.tuple [ Value.atom x; Value.atom y ]) q)
      in
      Printf.printf "%3d %3d | %6d %6d %6d %6d | %s\n" n m (c "a" "b") (c "b" "a")
        (c "a" "a") (c "b" "b")
        (check_mark
           (c "a" "b" = 0 && c "b" "a" = 0 && c "a" "a" = n * m && c "b" "b" = n * m)))
    [ (1, 1); (2, 3); (5, 4); (7, 7); (10, 3) ];
  Printf.printf "\nintermediate multiplicities at n=2, m=3 (the full table):\n";
  let b =
    Value.bag_of_assoc
      [
        (Value.tuple [ Value.atom "a"; Value.atom "b" ], B.of_int 2);
        (Value.tuple [ Value.atom "b"; Value.atom "a" ], B.of_int 3);
      ]
  in
  let prod = ev Expr.(lit b (Ty.relation 2) *** lit b (Ty.relation 2)) in
  let sel =
    ev
      (Expr.select "w" (Expr.Proj (2, Expr.Var "w")) (Expr.Proj (3, Expr.Var "w"))
         (Expr.lit prod (Ty.relation 4)))
  in
  let c bag x =
    B.to_string (Value.count_in (Value.tuple (List.map (fun s -> Value.atom s) x)) bag)
  in
  Printf.printf "  BxB:  abab=%s (n^2)  baba=%s (m^2)  baab=%s abba=%s (nm)\n"
    (c prod [ "a"; "b"; "a"; "b" ])
    (c prod [ "b"; "a"; "b"; "a" ])
    (c prod [ "b"; "a"; "a"; "b" ])
    (c prod [ "a"; "b"; "b"; "a" ]);
  Printf.printf "  after sigma_{2=3}: abab=%s baba=%s baab=%s abba=%s\n"
    (c sel [ "a"; "b"; "a"; "b" ])
    (c sel [ "b"; "a"; "b"; "a" ])
    (c sel [ "b"; "a"; "a"; "b" ])
    (c sel [ "a"; "b"; "b"; "a" ])

(* ------------------------------------------------------------------ E6 *)

let e06_polynomial_counts () =
  section "E6" "polynomial abstraction of BALG^1" "Prop 4.1 / 4.5";
  let cases =
    [
      ("B", Expr.Var "B");
      ("B ++ B", Expr.(Var "B" ++ Var "B"));
      ("pi1(B x B)", Expr.proj_attrs [ 1 ] Expr.(Var "B" *** Var "B"));
      ("pi1(BxB) -- B", Expr.(Expr.proj_attrs [ 1 ] (Var "B" *** Var "B") -- Var "B"));
      ("dedup(B ++ B)", Expr.Dedup Expr.(Var "B" ++ Var "B"));
      ("B /\\ dedup(B)", Expr.(Var "B" &&& Dedup (Var "B")));
    ]
  in
  Printf.printf "%-18s | %-24s | agreement with eval at n in {N+1..N+5}\n"
    "expression" "P_t(n) for t = <a>";
  List.iter
    (fun (name, e) ->
      let a = Polyab.analyze ~input:"B" e in
      let poly =
        match Polyab.polynomial_of a (Value.tuple [ Value.atom "a" ]) with
        | Some p -> Poly.to_string p
        | None -> "0"
      in
      let agree =
        List.for_all
          (fun d -> Polyab.agrees_with_eval ~input:"B" e a ~n:(a.Polyab.threshold + d))
          [ 1; 2; 3; 4; 5 ]
      in
      Printf.printf "%-18s | %-24s | %s\n" name poly (check_mark agree))
    cases;
  Printf.printf
    "\nconsequence (Prop 4.5): counts are eventually monotone, so bag-even\n\
     (count alternating n / 0) is not expressible in BALG^1.  Reference\n\
     bag-even on B_n for n = 1..6: %s\n"
    (String.concat " "
       (List.map (fun n -> if n mod 2 = 0 then "B_n" else "{}") [ 1; 2; 3; 4; 5; 6 ]))

(* ------------------------------------------------------------------ E7 *)

let e07_degree_compare () =
  section "E7" "in-degree > out-degree on random graphs" "Example 4.1";
  let rng = Random.State.make [| 23 |] in
  let trials = 200 in
  let ok = ref 0 in
  for _ = 1 to trials do
    let g = Baggen.Genval.graph rng ~n:6 ~p:0.4 in
    let node = Baggen.Genval.atom_name (Random.State.int rng 6) in
    let direct =
      let count f =
        List.length
          (List.filter
             (fun v ->
               match Value.view v with
               | Value.Tuple [ x; y ] -> f x y
               | _ -> false)
             (Value.support g))
      in
      count (fun _ y -> Value.equal y (Value.atom node))
      > count (fun x _ -> Value.equal x (Value.atom node))
    in
    let algebra =
      Eval.truthy
        (ev (Derived.indeg_gt_outdeg (Expr.lit g (Ty.relation 2)) (Expr.atom node)))
    in
    if direct = algebra then incr ok
  done;
  Printf.printf "agreement with direct degree counting: %d/%d  %s\n" !ok trials
    (check_mark (!ok = trials))

(* ------------------------------------------------------------------ E8 *)

let e08_zero_one_law () =
  section "E8" "no 0-1 law: mu_n(|R| > |S|) tends to 1/2" "Example 4.2 / [FGT93]";
  let rng = Random.State.make [| 41 |] in
  Printf.printf "%6s | %8s | %s\n" "n" "mu_n" "stderr";
  List.iter
    (fun n ->
      let p, se =
        Baggen.Stats.bernoulli ~trials:3000 rng (fun rng ->
            let r = Baggen.Genval.unary_relation rng ~n_atoms:n ~p:0.5 in
            let s = Baggen.Genval.unary_relation rng ~n_atoms:n ~p:0.5 in
            Eval.truthy
              (ev
                 (Derived.card_gt
                    (Expr.lit r (Ty.relation 1))
                    (Expr.lit s (Ty.relation 1)))))
      in
      Printf.printf "%6d | %8.3f | %.3f\n" n p se)
    [ 2; 4; 8; 16; 32; 64; 128 ];
  print_endline "paper: the asymptotic probability is 1/2 (so neither 0 nor 1)"

(* ------------------------------------------------------------------ E9 *)

let e09_parity_order () =
  section "E9" "parity of |R| with an order" "§4 / [LW93a]";
  Printf.printf "%4s | %8s | %8s\n" "|R|" "algebra" "truth";
  let all_ok = ref true in
  List.iter
    (fun n ->
      let names = List.init n (fun i -> Printf.sprintf "e%02d" i) in
      let r = rel1 names in
      let leq = Baggen.Genval.leq_relation r in
      let got =
        Eval.truthy
          (ev
             (Derived.parity_even
                (Expr.lit r (Ty.relation 1))
                (Expr.lit leq (Ty.relation 2))))
      in
      let want = n mod 2 = 0 && n > 0 in
      if got <> want then all_ok := false;
      Printf.printf "%4d | %8s | %8s\n" n
        (if got then "even" else "odd")
        (if n mod 2 = 0 then "even" else "odd"))
    [ 1; 2; 3; 4; 5; 6; 9; 12 ];
  Printf.printf "all agree (n >= 1): %s\n" (check_mark !all_ok);
  print_endline
    "paper: definable with order (shown); not definable without [LW94];\n\
     not first-order definable even with order (Ehrenfeucht-Fraisse)"

(* ------------------------------------------------------------------ E10 *)

let e10_balg1_growth () =
  section "E10" "BALG^1 multiplicities grow polynomially" "Thm 4.4 (LOGSPACE)";
  (* a 3-fold product with selections: the worst polynomial in the query *)
  let q =
    Expr.proj_attrs [ 1 ]
      Expr.(Var "B" *** Var "B" *** Var "B")
  in
  Printf.printf "query: pi1(B x B x B) on B_n; max multiplicity should be n^3\n";
  Printf.printf "%6s | %16s | %16s\n" "n" "max count" "n^3";
  List.iter
    (fun n ->
      let meters = Eval.fresh_meters () in
      let bn = Value.replicate (B.of_int n) (Value.tuple [ Value.atom "a" ]) in
      ignore (Eval.eval ~meters (Eval.env_of_list [ ("B", bn) ]) q);
      Printf.printf "%6d | %16s | %16d  %s\n" n
        (B.to_string meters.Harness.max_count_seen)
        (n * n * n)
        (check_mark (B.equal meters.Harness.max_count_seen (B.of_int (n * n * n)))))
    [ 2; 4; 8; 16; 32; 64 ];
  print_endline
    "polynomial counts fit in O(log n) bits as pointers+counters: the\n\
     LOGSPACE bound of Thm 4.4"

(* ------------------------------------------------------------------ E11 *)

let e11_balg2_growth () =
  section "E11" "BALG^2: one exponential, then polynomial" "Thm 5.1 / Prop 3.2";
  Printf.printf "max multiplicity in (delta P)^i (B_n), n = 3:\n";
  Printf.printf "%3s | %-30s\n" "i" "max count";
  let v = ref (Value.replicate (B.of_int 3) (Value.atom "a")) in
  let prev = ref B.one in
  List.iter
    (fun i ->
      v := Bag.destroy (Bag.powerset !v);
      let mc = Bag.max_count !v in
      let ratio =
        if B.is_zero !prev then "-"
        else B.to_string (B.div mc !prev)
      in
      prev := mc;
      Printf.printf "%3d | %-30s (x%s)\n" i (B.to_string mc) ratio)
    [ 1; 2; 3; 4 ];
  print_endline
    "paper: the first delta-P step is exponential, later steps only\n\
     polynomial — multiplicities stay below 2^poly(n), giving PSPACE (Thm 5.1)"

(* ------------------------------------------------------------------ E12 *)

let e12_pebble_game () =
  section "E12" "the Theorem 5.2 separation and Fig. 1" "Thm 5.2 / Lemma 5.4";
  let module C = Pebble.Construction in
  let module G = Pebble.Game in
  let g6 = C.g_balanced 6 in
  Format.printf "%a" C.render_figure g6;
  Printf.printf "\nProperty (1) of In_n/Out_n: %s (n = 4..12)\n"
    (check_mark (List.for_all C.property_one [ 4; 6; 8; 10; 12 ]));
  List.iter
    (fun n ->
      let g = C.g_balanced n and g' = C.g_flipped n in
      let run graph =
        Eval.truthy
          (Eval.eval
             (Eval.env_of_list [ ("G", C.edges_value graph) ])
             (C.phi_query graph))
      in
      Printf.printf
        "n=%2d: indeg(alpha): G %d/%d, G' %d/%d; BALG^2 query: G=%b G'=%b  %s\n" n
        (C.in_degree g g.C.alpha) (C.out_degree g g.C.alpha)
        (C.in_degree g' g'.C.alpha) (C.out_degree g' g'.C.alpha) (run g) (run g')
        (check_mark ((not (run g)) && run g')))
    [ 4; 6 ];
  let g4 = C.g_balanced 4 and g4' = C.g_flipped 4 in
  Printf.printf "game (exhaustive) k=1, n=4 > 2^1: duplicator wins: %b\n"
    (G.duplicator_wins_exhaustive ~k:1 g4 g4');
  Printf.printf "game (proof strategy) k=1, n=4: duplicator wins: %b\n"
    (G.duplicator_strategy_wins ~k:1 g4 g4');
  let g6' = C.g_flipped 6 in
  Printf.printf "game (proof strategy) k=2, n=6 > 2^2: duplicator wins: %b\n"
    (G.duplicator_strategy_wins ~k:2 g6 g6');
  print_endline
    "so no fixed RALG^2 (CALC_1) sentence separates G from G' for all n,\n\
     while one BALG^2 query does: RALG^2 is strictly inside BALG^2 (Thm 5.2)"

(* ------------------------------------------------------------------ E13 *)

let e13_arith_compiler () =
  section "E13" "bounded arithmetic compiled to BALG + Pb" "Thm 5.5 / Lemma 5.7";
  let module A = Encodings.Arith in
  let formulas =
    [
      ("even(n)", A.Exists (A.Eq (A.TAdd (A.TVar 1, A.TVar 1), A.TInput)));
      ( "composite(n)",
        A.Exists
          (A.Exists
             (A.And
                ( A.And (A.Le (A.TConst 2, A.TVar 1), A.Le (A.TConst 2, A.TVar 2)),
                  A.Eq (A.TMul (A.TVar 1, A.TVar 2), A.TInput) ))) );
      ("square(n)", A.Exists (A.Eq (A.TMul (A.TVar 1, A.TVar 1), A.TInput)));
      ( "triangular(n)",
        A.Exists
          (A.Eq
             ( A.TAdd (A.TMul (A.TVar 1, A.TVar 1), A.TVar 1),
               A.TAdd (A.TInput, A.TInput) )) );
    ]
  in
  Printf.printf "%-14s |" "n =";
  List.iter (fun n -> Printf.printf " %2d" n) (List.init 10 Fun.id);
  print_newline ();
  let all_ok = ref true in
  List.iter
    (fun (name, f) ->
      Printf.printf "%-14s |" name;
      List.iter
        (fun n ->
          let direct = A.eval_formula ~bound:n ~input:n f in
          let algebra = A.holds_via_algebra ~bound:n ~input:n f in
          if direct <> algebra then all_ok := false;
          Printf.printf " %2s" (if algebra then "T" else "."))
        (List.init 10 Fun.id);
      print_newline ())
    formulas;
  Printf.printf "algebra agrees with the reference semantics everywhere: %s\n"
    (check_mark !all_ok);
  let pd = Encodings.Arith.paper_domain1 ~i:1 (Derived.nat_lit 2) in
  Printf.printf
    "paper-faithful domain D(b_2) = P(E(b_2)) via Pb has %d members (0..2^2)\n"
    (Value.support_size (ev pd))

(* ------------------------------------------------------------------ E14 *)

let e14_tm_balg3 () =
  section "E14" "Theorem 6.1 end to end" "Thm 6.1";
  let module Tm3 = Encodings.Tm3 in
  Printf.printf
    "one-move machine, input '1 1', full P(DxDxAxQ) selection:\n";
  Printf.printf "  accepting machine -> query nonempty: %b\n"
    (Tm3.accepts Tm.tiny_step ~space:2 [ "1"; "1" ]);
  let stuck = { Tm.tiny_step with Tm.delta = (fun _ -> None) } in
  Printf.printf "  machine without moves -> query empty: %b\n"
    (not (Tm3.accepts stuck ~space:2 [ "1"; "1" ]));
  let paper = Tm3.tm_expr_paper ~i:1 Tm.tiny_step ~space:2 [ "1"; "1" ] in
  let env = Typecheck.env_of_list [ ("B", Ty.nat) ] in
  let r = Analyze.analyze env paper in
  Printf.printf
    "verbatim paper shape with D(B) = P(E^1(B)): bag nesting %d, power \
     nesting %d,\nclass %s (evaluation is hyper-exponential by design — not \
     run)\n"
    r.Analyze.bag_nesting r.Analyze.power_nesting
    (Analyze.cclass_to_string r.Analyze.cclass)

(* ------------------------------------------------------------------ E15 *)

let e15_power_hierarchy () =
  section "E15" "the power-nesting hierarchy" "Thm 6.2 / Prop 6.3-6.4";
  Printf.printf
    "growth of card((delta delta P P)^i (b_n)) vs the hyper scale, n = 2:\n";
  let v = ref (Value.replicate B.two (Value.atom "a")) in
  (let rec go i =
     if i <= 2 then begin
       v := Bag.destroy (Bag.destroy (Bag.powerset (Bag.powerset !v)));
       let c = Value.cardinal !v in
       Printf.printf "  i = %d : card = %s (digits: %d; hyper(%d)(2) = %s)\n" i
         (B.to_string c) (B.digits c) (i + 1)
         (B.to_string (B.hyper (i + 1) 2));
       if B.digits c < 40 then go (i + 1)
     end
   in
   go 1);
  Printf.printf "\npowerbag doubling E(b) = ones(Pb(ones b)) iterated from 1:\n";
  let w = ref (Value.nat 1) in
  List.iter
    (fun i ->
      let e = Derived.exp2_via_powerbag (Expr.lit !w Ty.nat) in
      w := ev e;
      Printf.printf "  E^%d(b_1) has cardinality %s\n" i
        (B.to_string (Value.cardinal !w)))
    [ 1; 2; 3 ];
  print_endline
    "each Pb application doubles exponentially (Prop 6.4): every level of\n\
     power nesting buys one level of the hyper-exponential hierarchy"

(* ------------------------------------------------------------------ E16 *)

let e16_ifp_turing () =
  section "E16" "Turing machines via BALG + IFP" "Thm 6.6";
  let module Tmifp = Encodings.Tmifp in
  Printf.printf "%12s %6s | %8s | %8s\n" "machine" "input" "algebra" "direct";
  let all_ok = ref true in
  List.iter
    (fun n ->
      let a = Tmifp.accepts Tm.parity_even ~space:(n + 2) (Tm.unary n) in
      let d = Tm.accepts Tm.parity_even (Tm.unary n) in
      if a <> d then all_ok := false;
      Printf.printf "%12s %6d | %8b | %8b\n" "parity" n a d)
    [ 0; 1; 2; 3; 4; 5 ];
  List.iter
    (fun n ->
      let out = Tmifp.output_ones Tm.unary_successor ~space:(n + 2) (Tm.unary n) in
      if out <> n + 1 then all_ok := false;
      Printf.printf "%12s %6d | succ = %d (expected %d)\n" "successor" n out (n + 1))
    [ 0; 2; 5 ];
  Printf.printf "%12s %6d | %8b | %8b\n" "bouncer" 3
    (Tmifp.accepts Tm.bouncer ~space:5 (Tm.unary 3))
    (Tm.accepts Tm.bouncer (Tm.unary 3));
  Printf.printf "all simulations agree with the reference machine: %s\n"
    (check_mark !all_ok)

(* ------------------------------------------------------------------ E17 *)

let e17_transitive_closure () =
  section "E17" "transitive closure via bounded fixpoint" "§6 end / [Suc93]";
  let rng = Random.State.make [| 57 |] in
  Printf.printf "%4s %6s | %10s | %s\n" "n" "edges" "TC pairs" "matches reference";
  List.iter
    (fun n ->
      let g = Baggen.Genval.graph rng ~n ~p:0.3 in
      let tc = ev (Derived.transitive_closure (Expr.lit g (Ty.relation 2))) in
      let ref_tc = Baggen.Genval.transitive_closure_ref g in
      Printf.printf "%4d %6d | %10d | %s\n" n (Value.support_size g)
        (Value.support_size tc)
        (check_mark (Value.equal tc ref_tc)))
    [ 3; 5; 7; 9; 12 ];
  print_endline
    "bounded fixpoints add recursion at bounded cost (the paper's closing\n\
     remark); the unbounded IFP is Turing complete instead (Thm 6.6)"

(* ------------------------------------------------------------------ E18 *)

let e18_optimizer () =
  section "E18" "rewriting: bag-sound vs set-only rules" "§3 / [CV93]";
  let tenv =
    Typecheck.env_of_list [ ("R", Ty.relation 1); ("S", Ty.relation 2) ]
  in
  let rng = Random.State.make [| 77 |] in
  let equivalent e1 e2 =
    List.for_all
      (fun _ ->
        let inst = Baggen.Genexpr.instance rng [ ("R", 1); ("S", 2) ] in
        Value.equal
          (Eval.eval (Eval.env_of_list inst) e1)
          (Eval.eval (Eval.env_of_list inst) e2))
      (List.init 40 Fun.id)
  in
  (* sound rules on a random corpus *)
  let sound_ok = ref 0 and total = 100 in
  for _ = 1 to total do
    let e = Baggen.Genexpr.flat rng [ ("R", 1); ("S", 2) ] 4 (1 + Random.State.int rng 2) in
    let e', _ = Rewrite.normalize tenv e in
    if equivalent e e' then incr sound_ok
  done;
  Printf.printf "sound rules preserve bag semantics: %d/%d  %s\n" !sound_ok total
    (check_mark (!sound_ok = total));
  (* the CV93 counterexamples *)
  let q1 = Expr.proj_attrs [ 1 ] Expr.(Var "R" *** Var "R") in
  let q1', log1 = Rewrite.normalize ~rules:Rewrite.set_only_rules tenv q1 in
  Printf.printf "set-only rule %s:\n"
    (match log1 with r :: _ -> r | [] -> "(none)");
  Printf.printf "  pi1(R x R) --> %s ; bag-equivalent: %b (set-equivalent: true)\n"
    (Expr.to_string q1') (equivalent q1 q1');
  let q2 = Expr.Dedup (Expr.proj_attrs [ 1 ] (Expr.Var "S")) in
  let q2', _ =
    Rewrite.normalize ~rules:[ List.nth Rewrite.set_only_rules 1 ] tenv q2
  in
  Printf.printf "  dedup(pi1(S)) --> %s ; bag-equivalent: %b\n"
    (Expr.to_string q2') (equivalent q2 q2');
  print_endline
    "paper/[CV93]: set-semantics optimisation does not carry over to bags —\n\
     the randomized checker flags exactly the set-only rules"

(* ------------------------------------------------------------------ E19 *)

let e19_classifier () =
  section "E19" "the static classifier on a query corpus" "Thm 4.4/5.1/6.1-6.6";
  let tenv =
    Typecheck.env_of_list
      [ ("R", Ty.relation 1); ("G", Ty.relation 2); ("NS", Ty.Bag Ty.nat) ]
  in
  let corpus =
    [
      ("self-join (E5)", Derived.selfjoin (Expr.Var "G"));
      ("degrees (Ex 4.1)", Derived.indeg_gt_outdeg (Expr.Var "G") (Expr.atom "a"));
      ("card compare (Ex 4.2)", Derived.card_gt_paper (Expr.Var "R") (Expr.Var "R"));
      ("average (§3)", Derived.average (Expr.Var "NS"));
      ("diff via P (§3)", Derived.diff_via_powerset (Expr.Var "R") (Expr.Var "R"));
      ("TC via bfix (§6)", Derived.transitive_closure (Expr.Var "G"));
      ("P(P(R))", Expr.Powerset (Expr.Powerset (Expr.Var "R")));
      ("delta(Pb(R))", Expr.Destroy (Expr.Powerbag (Expr.Var "R")));
      ( "IFP step (Thm 6.6)",
        Expr.Fix ("X", Expr.Dedup (Expr.UnionMax (Expr.Var "X", Expr.Var "G")),
                  Expr.Var "G") );
    ]
  in
  Printf.printf "%-24s | %2s %2s %-3s | %s\n" "query" "k" "i" "Pb" "class";
  List.iter
    (fun (name, e) ->
      let r = Analyze.analyze tenv e in
      Printf.printf "%-24s | %2d %2d %-3s | %s\n" name r.Analyze.bag_nesting
        r.Analyze.power_nesting
        (if r.Analyze.powerbag then "yes" else "no")
        (Analyze.cclass_to_string r.Analyze.cclass))
    corpus

(* ------------------------------------------------------------------ E20 *)

let e20_nest () =
  section "E20" "nest vs powerset" "§7 / [PG88, Won93]";
  let rng = Random.State.make [| 93 |] in
  (* nest agrees with its MAP-based definition (no powerset involved) *)
  let trials = 200 in
  let ok = ref 0 in
  for _ = 1 to trials do
    let arity = 2 + Random.State.int rng 2 in
    let bag = Baggen.Genval.flat_bag rng ~n_atoms:3 ~arity ~size:6 ~max_count:3 in
    let n_keys = 1 + Random.State.int rng (arity - 1) in
    let ixs = List.init n_keys (fun i -> i + 1) in
    let e = Expr.lit bag (Ty.relation arity) in
    if
      Value.equal
        (ev (Expr.Nest (ixs, e)))
        (ev (Derived.nest_via_map ixs ~arity e))
    then incr ok
  done;
  Printf.printf "nest definable without powerset (vs MAP oracle): %d/%d  %s\n"
    !ok trials (check_mark (!ok = trials));
  (* the Example 4.1-style separation carries over to the nest fragment:
     the degree query uses neither P nor nest, so
     RALG^2+nest-P < BALG^2+nest-P (§7's closing claim) *)
  let tenv = Typecheck.env_of_list [ ("G", Ty.relation 2) ] in
  let q = Derived.indeg_gt_outdeg (Expr.Var "G") (Expr.atom "a") in
  let r = Analyze.analyze tenv q in
  Printf.printf
    "separating query uses no powerset (power nesting %d) and no nest:\n\
    \  it lives in BALG^2 ∪ {nest} − {P}, but not in RALG^2 ∪ {nest} − {P}\n"
    r.Analyze.power_nesting;
  (* grouping aggregates: the SQL GROUP BY shape via nest *)
  let t2 x y = Value.tuple [ Value.atom x; Value.atom y ] in
  let sales =
    Value.bag_of_assoc
      [
        (t2 "ada" "widget", B.of_int 3);
        (t2 "ada" "gadget", B.one);
        (t2 "bob" "widget", B.of_int 2);
      ]
  in
  let counts = ev (Derived.group_count [ 1 ] (Expr.lit sales (Ty.relation 2))) in
  Printf.printf "GROUP BY customer / COUNT via nest: %s\n" (Value.to_string counts)

(* ------------------------------------------------------------------ E21 *)

let e21_calculus () =
  section "E21" "CALC1 and the algebra agree" "§5 / [AB87] / Thm 5.3";
  let module Calc = Ralg.Calc in
  let module Rel = Ralg.Rel in
  let module Reval = Ralg.Reval in
  let t2 x y = Value.tuple [ Value.atom x; Value.atom y ] in
  let g_rel = Rel.of_list [ t2 "x" "y"; t2 "y" "z"; t2 "x" "x"; t2 "z" "x" ] in
  let db = [ ("G", g_rel) ] in
  let comp t i = Calc.TComp (t, i) in
  (* the calculus query { u | exists v. G(v) and v.1 = u.1 } vs dedup(pi1 G) *)
  let calc_proj =
    Calc.query db ("u", Calc.VTuple 1)
      (Calc.Exists
         ( "v",
           Calc.VTuple 2,
           Calc.And
             ( Calc.Rel ("G", Calc.TVar "v"),
               Calc.Eq (comp (Calc.TVar "v") 1, comp (Calc.TVar "u") 1) ) ))
  in
  let alg_proj =
    Reval.eval
      (Reval.env_of_list [ ("G", Rel.to_value g_rel) ])
      (Expr.Dedup (Expr.proj_attrs [ 1 ] (Expr.Var "G")))
  in
  Printf.printf "projection:   calculus == algebra: %s\n"
    (check_mark (Value.equal (Rel.to_value calc_proj) alg_proj));
  (* composition join *)
  let calc_join =
    Calc.query db ("u", Calc.VTuple 2)
      (Calc.Exists
         ( "v",
           Calc.VTuple 2,
           Calc.Exists
             ( "w",
               Calc.VTuple 2,
               Calc.And
                 ( Calc.And (Calc.Rel ("G", Calc.TVar "v"), Calc.Rel ("G", Calc.TVar "w")),
                   Calc.And
                     ( Calc.Eq (comp (Calc.TVar "v") 2, comp (Calc.TVar "w") 1),
                       Calc.And
                         ( Calc.Eq (comp (Calc.TVar "u") 1, comp (Calc.TVar "v") 1),
                           Calc.Eq (comp (Calc.TVar "u") 2, comp (Calc.TVar "w") 2) ) ) ) ) ))
  in
  let alg_join =
    Reval.eval
      (Reval.env_of_list [ ("G", Rel.to_value g_rel) ])
      (Derived.selfjoin (Expr.Var "G"))
  in
  Printf.printf "join:         calculus == algebra: %s\n"
    (check_mark (Value.equal (Rel.to_value calc_join) alg_join));
  (* a second-order (set-quantified) sentence of CALC1 *)
  let independent_set =
    (* exists a set S of atoms-as-1-tuples with no G-edge inside S *)
    Calc.Exists
      ( "S",
        Calc.VSet 1,
        Calc.Forall
          ( "v",
            Calc.VTuple 2,
            Calc.Not
              (Calc.And
                 ( Calc.Rel ("G", Calc.TVar "v"),
                   Calc.Exists
                     ( "a",
                       Calc.VTuple 1,
                       Calc.Exists
                         ( "b",
                           Calc.VTuple 1,
                           Calc.And
                             ( Calc.And
                                 ( Calc.Mem (Calc.TVar "a", Calc.TVar "S"),
                                   Calc.Mem (Calc.TVar "b", Calc.TVar "S") ),
                               Calc.And
                                 ( Calc.Eq (comp (Calc.TVar "a") 1, comp (Calc.TVar "v") 1),
                                   Calc.Eq (comp (Calc.TVar "b") 1, comp (Calc.TVar "v") 2) )
                             ) ) ) )) ) )
  in
  Printf.printf
    "set quantification over the completion domain (independent set): %b\n"
    (Calc.sentence db independent_set);
  print_endline
    "CALC1 = RALG^2 [AB87]; its pebble game (E12) shows the degree query\n\
     escapes it, while BALG^2 expresses it: the Thm 5.2 separation";
  (* and the nesting-2 pieces stay in PSPACE: domains are exponential *)
  let atoms = List.length (Calc.active_atoms db) in
  Printf.printf "active domain: %d atoms; set domain: 2^%d objects\n" atoms atoms

let run_all () =
  print_endline "==========================================================";
  print_endline " Reproduction harness: Grumbach & Milo, 'Towards Tractable";
  print_endline " Algebras for Bags' — every table, figure and claim";
  print_endline "==========================================================";
  e01_powerset_vs_powerbag ();
  e02_duplicate_explosion ();
  e03_aggregates ();
  e04_identities ();
  e05_selfjoin_table ();
  e06_polynomial_counts ();
  e07_degree_compare ();
  e08_zero_one_law ();
  e09_parity_order ();
  e10_balg1_growth ();
  e11_balg2_growth ();
  e12_pebble_game ();
  e13_arith_compiler ();
  e14_tm_balg3 ();
  e15_power_hierarchy ();
  e16_ifp_turing ();
  e17_transitive_closure ();
  e18_optimizer ();
  e19_classifier ();
  e20_nest ();
  e21_calculus ()
