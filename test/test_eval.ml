(* Tests for the typechecker and the evaluator: operator semantics, binder
   behaviour, fixpoints, guards, meters. *)

open Balg
module B = Bignat

let value = Alcotest.testable Value.pp Value.equal
let ty = Alcotest.testable Ty.pp Ty.equal

let a = Value.atom "a"
let b = Value.atom "b"
let bagc l = Value.bag_of_assoc (List.map (fun (v, n) -> (v, B.of_int n)) l)
let rel1 l = Value.bag_of_list (List.map (fun x -> Value.tuple [ Value.atom x ]) l)

let rel2 l =
  Value.bag_of_list
    (List.map (fun (x, y) -> Value.tuple [ Value.atom x; Value.atom y ]) l)

(* Routed through the engine dispatcher so the CI vec leg (BALG_ENGINE=vec)
   runs these semantics tests under the vectorized engine too, and through
   the planner so the optimizer leg (BALG_OPT=cost) evaluates optimized
   plans.  The type env is empty here, so only type-agnostic rules fire —
   prepare never raises either way. *)
let ev ?(env = []) e =
  let e = Opt.prepare ~vals:env (Opt.default_mode ()) Typecheck.Env.empty e in
  Veval.eval_engine (Veval.default_engine ()) (Eval.env_of_list env) e
let tc ?(env = []) e = Typecheck.infer (Typecheck.env_of_list env) e

(* --- typechecker -------------------------------------------------------- *)

let test_typecheck_ok () =
  let env = [ ("G", Ty.relation 2) ] in
  Alcotest.check ty "product" (Ty.relation 4) (tc ~env Expr.(Var "G" *** Var "G"));
  Alcotest.check ty "powerset"
    (Ty.Bag (Ty.Bag (Ty.Tuple [ Ty.Atom; Ty.Atom ])))
    (tc ~env (Expr.Powerset (Expr.Var "G")));
  Alcotest.check ty "destroy . powerset" (Ty.relation 2)
    (tc ~env (Expr.Destroy (Expr.Powerset (Expr.Var "G"))));
  Alcotest.check ty "map to narrower tuple" (Ty.relation 1)
    (tc ~env (Expr.proj_attrs [ 2 ] (Expr.Var "G")));
  Alcotest.check ty "select preserves type" (Ty.relation 2)
    (tc ~env
       (Expr.select "x" (Expr.Proj (1, Expr.Var "x")) (Expr.Proj (2, Expr.Var "x"))
          (Expr.Var "G")));
  Alcotest.check ty "let" Ty.Atom (tc (Expr.Let ("x", Expr.atom "a", Expr.Var "x")))

let expect_type_error name f =
  match f () with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Type_error")

let test_typecheck_errors () =
  let env = [ ("G", Ty.relation 2); ("H", Ty.relation 3) ] in
  expect_type_error "unbound" (fun () -> tc (Expr.Var "nope"));
  expect_type_error "union arity clash" (fun () ->
      tc ~env Expr.(Var "G" ++ Var "H"));
  expect_type_error "product of non-tuples" (fun () ->
      tc ~env Expr.(Powerset (Var "G") *** Var "G"));
  expect_type_error "destroy flat bag" (fun () -> tc ~env (Expr.Destroy (Expr.Var "G")));
  expect_type_error "projection out of range" (fun () ->
      tc ~env (Expr.proj_attrs [ 5 ] (Expr.Var "G")));
  expect_type_error "select type clash" (fun () ->
      tc ~env
        (Expr.select "x" (Expr.Proj (1, Expr.Var "x")) (Expr.Var "x") (Expr.Var "G")));
  expect_type_error "bad literal" (fun () ->
      tc (Expr.Lit (Value.atom "a", Ty.relation 1)))

let test_nesting_measure () =
  let env = Typecheck.env_of_list [ ("G", Ty.relation 2) ] in
  Alcotest.(check int) "flat query" 1
    (Typecheck.max_nesting env (Derived.selfjoin (Expr.Var "G")));
  Alcotest.(check int) "powerset raises nesting" 2
    (Typecheck.max_nesting env (Expr.Destroy (Expr.Powerset (Expr.Var "G"))));
  Typecheck.check_nesting 1 env (Derived.selfjoin (Expr.Var "G"));
  expect_type_error "nesting violation" (fun () ->
      Typecheck.check_nesting 1 env (Expr.Destroy (Expr.Powerset (Expr.Var "G")));
      Ty.Atom)

(* --- evaluator ---------------------------------------------------------- *)

let test_eval_basics () =
  Alcotest.check value "atom" a (ev (Expr.atom "a"));
  Alcotest.check value "tuple" (Value.tuple [ a; b ])
    (ev (Expr.Tuple [ Expr.atom "a"; Expr.atom "b" ]));
  Alcotest.check value "proj" b
    (ev (Expr.Proj (2, Expr.Tuple [ Expr.atom "a"; Expr.atom "b" ])));
  Alcotest.check value "sing" (bagc [ (a, 1) ]) (ev (Expr.Sing (Expr.atom "a")));
  Alcotest.check value "let shadowing" b
    (ev (Expr.Let ("x", Expr.atom "a", Expr.Let ("x", Expr.atom "b", Expr.Var "x"))))

let test_eval_bag_ops () =
  let x = bagc [ (a, 2); (b, 1) ] and y = bagc [ (a, 1) ] in
  let lx = Expr.lit x (Ty.Bag Ty.Atom) and ly = Expr.lit y (Ty.Bag Ty.Atom) in
  Alcotest.check value "++" (bagc [ (a, 3); (b, 1) ]) (ev Expr.(lx ++ ly));
  Alcotest.check value "--" (bagc [ (a, 1); (b, 1) ]) (ev Expr.(lx -- ly));
  Alcotest.check value "max" (bagc [ (a, 2); (b, 1) ]) (ev Expr.(lx ||| ly));
  Alcotest.check value "inter" (bagc [ (a, 1) ]) (ev Expr.(lx &&& ly));
  Alcotest.check value "dedup" (bagc [ (a, 1); (b, 1) ]) (ev (Expr.Dedup lx))

let test_eval_map_select () =
  let g = rel2 [ ("a", "b"); ("b", "c"); ("a", "a") ] in
  let lg = Expr.lit g (Ty.relation 2) in
  Alcotest.check value "map swap"
    (rel2 [ ("b", "a"); ("c", "b"); ("a", "a") ])
    (ev
       (Expr.map "x"
          (Expr.Tuple [ Expr.Proj (2, Expr.Var "x"); Expr.Proj (1, Expr.Var "x") ])
          lg));
  Alcotest.check value "select diagonal" (rel2 [ ("a", "a") ])
    (ev
       (Expr.select "x" (Expr.Proj (1, Expr.Var "x")) (Expr.Proj (2, Expr.Var "x")) lg));
  (* map coalesces: project first column *)
  Alcotest.check value "projection merges duplicates"
    (Value.bag_of_assoc
       [ (Value.tuple [ a ], B.of_int 2); (Value.tuple [ b ], B.one) ])
    (ev (Expr.proj_attrs [ 1 ] lg))

let test_eval_product_powerset () =
  let r = rel1 [ "a"; "b" ] in
  let lr = Expr.lit r (Ty.relation 1) in
  Alcotest.check value "product"
    (rel2 [ ("a", "a"); ("a", "b"); ("b", "a"); ("b", "b") ])
    (ev Expr.(lr *** lr));
  Alcotest.(check int) "powerset support" 4
    (Value.support_size (ev (Expr.Powerset lr)));
  Alcotest.check value "destroy . powerset counts"
    (Value.bag_of_assoc
       [ (Value.tuple [ a ], B.of_int 2); (Value.tuple [ b ], B.of_int 2) ])
    (ev (Expr.Destroy (Expr.Powerset lr)))

let test_binder_scoping () =
  (* The binder of an inner Map must not capture the outer variable. *)
  let r = rel1 [ "a"; "b" ] in
  let lr = Expr.lit r (Ty.relation 1) in
  let inner = Expr.map "x" (Expr.Var "y") lr in
  let outer = Expr.map "y" (Expr.Tuple [ Expr.Proj (1, Expr.Var "y") ]) inner in
  (* y bound outside is unbound inside the inner map's evaluation context
     only if scoping is wrong; with correct scoping the outer binder is not
     in scope here, so this should fail to typecheck. *)
  expect_type_error "y unbound at top" (fun () -> tc outer)

let test_subst_capture () =
  (* subst x -> (Var y) into map(y -> ... x ...) must rename the binder *)
  let e = Expr.map "y" (Expr.Tuple [ Expr.Proj (1, Expr.Var "x") ]) (Expr.Var "R") in
  let e' = Expr.subst "x" (Expr.Var "y") e in
  (* after substitution, the free variables must be {y, R} *)
  let fv = Expr.free_vars e' in
  Alcotest.(check bool) "y free" true (Expr.Vars.mem "y" fv);
  Alcotest.(check bool) "R free" true (Expr.Vars.mem "R" fv);
  Alcotest.(check int) "only two free vars" 2 (Expr.Vars.cardinal fv)

let test_fixpoint () =
  let g = rel2 [ ("a", "b"); ("b", "c"); ("c", "d") ] in
  let expected =
    rel2
      [ ("a", "b"); ("b", "c"); ("c", "d"); ("a", "c"); ("b", "d"); ("a", "d") ]
  in
  Alcotest.check value "transitive closure via bfix" expected
    (ev (Derived.transitive_closure (Expr.lit g (Ty.relation 2))));
  (* unbounded Fix on the same body also converges here *)
  let gv = Expr.lit g (Ty.relation 2) in
  let body = Expr.Dedup (Expr.UnionMax (Expr.Var "X", Derived.compose (Expr.Var "X") gv)) in
  Alcotest.check value "IFP agrees" expected
    (ev (Expr.Fix ("X", body, Expr.Dedup gv)))

let test_fix_divergence_guard () =
  (* X ↦ X ∪+ X grows forever; the guard must stop it.  Note ∪+ is not
     inflationary-stable: max-union with previous keeps doubling. *)
  let seed = Expr.lit (rel1 [ "a" ]) (Ty.relation 1) in
  let body = Expr.(Var "X" ++ Var "X") in
  let config = { Eval.default_config with max_fix_steps = 50 } in
  match Eval.eval ~config (Eval.env_of_list []) (Expr.Fix ("X", body, seed)) with
  | exception Eval.Resource_limit _ -> ()
  | _ -> Alcotest.fail "expected Resource_limit"

let test_meters () =
  let meters = Eval.fresh_meters () in
  let r = Value.replicate (B.of_int 8) (Value.tuple [ a ]) in
  let e = Expr.Powerset (Expr.lit r (Ty.relation 1)) in
  ignore (Eval.eval ~meters (Eval.env_of_list []) e);
  Alcotest.(check int) "support meter" 9 meters.Harness.max_support_seen;
  Alcotest.(check string) "count meter" "8" (B.to_string meters.Harness.max_count_seen)

let test_truthy () =
  Alcotest.(check bool) "empty false" false (Eval.truthy Value.empty_bag);
  Alcotest.(check bool) "nonempty true" true (Eval.truthy (bagc [ (a, 1) ]));
  match Eval.truthy a with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected Eval_error on atom"

let test_unbound_variable () =
  match ev (Expr.Var "missing") with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected Eval_error"

(* Evaluation agrees with typing: a well-typed expression evaluates to a
   value of its type (on random BALG^1 expressions). *)
let prop_type_soundness =
  QCheck.Test.make ~name:"type soundness on random BALG^1 expressions"
    ~count:300 QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let env_spec = [ ("R", 1); ("S", 2) ] in
      let e = Baggen.Genexpr.flat rng env_spec 4 (1 + Random.State.int rng 2) in
      let tenv = Typecheck.env_of_list (Baggen.Genexpr.env_types env_spec) in
      let ty = Typecheck.infer tenv e in
      let inst = Baggen.Genexpr.instance rng env_spec in
      let v = Eval.eval (Eval.env_of_list inst) e in
      Value.has_type ty v)

let () =
  Alcotest.run "eval"
    [
      ( "typecheck",
        [
          Alcotest.test_case "accepts well-typed" `Quick test_typecheck_ok;
          Alcotest.test_case "rejects ill-typed" `Quick test_typecheck_errors;
          Alcotest.test_case "nesting measure" `Quick test_nesting_measure;
        ] );
      ( "eval",
        [
          Alcotest.test_case "basics" `Quick test_eval_basics;
          Alcotest.test_case "bag operators" `Quick test_eval_bag_ops;
          Alcotest.test_case "map and select" `Quick test_eval_map_select;
          Alcotest.test_case "product and powerset" `Quick test_eval_product_powerset;
          Alcotest.test_case "binder scoping" `Quick test_binder_scoping;
          Alcotest.test_case "substitution avoids capture" `Quick test_subst_capture;
          Alcotest.test_case "fixpoints" `Quick test_fixpoint;
          Alcotest.test_case "divergence guard" `Quick test_fix_divergence_guard;
          Alcotest.test_case "meters" `Quick test_meters;
          Alcotest.test_case "truthy" `Quick test_truthy;
          Alcotest.test_case "unbound variable" `Quick test_unbound_variable;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_type_soundness ]);
    ]
