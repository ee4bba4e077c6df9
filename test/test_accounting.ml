(* Golden accounting: the exact work both engines charge for a fixed set of
   queries.  The other suites check that the instruments agree with each
   other (span steps == spent fuel); this one pins the amounts, so a change
   to the evaluation harness that moves a single unit of fuel, re-attributes
   a verdict or reorders a trace event fails here.

   Each query runs sequentially under the tree engine ({!Eval.run}) and the
   vec engine ({!Veval.run}) with a telemetry sink attached and trace capture
   on, and renders as one line:

     fuel=N value=HASH|verdict=resource@node:op|exception
     tel=TOTAL ops=op:steps,...  ends=name@node:steps ...

   where [ops] is the telemetry per-operator step breakdown and [ends] is
   the ordered list of the run's [eval] end events.  A plain run (no sink,
   no capture) must spend the same fuel.  On a mismatch the failure message
   prints the actual line. *)

open Balg

let pv = Baglang.Parser.value_of_string

let env =
  Eval.env_of_list
    [
      ( "R",
        pv "{{ <'a,'b>, <'b,'c>:2, <'c,'d>, <'d,'a>, <'b,'b> }}" );
      ("S", pv "{{ <'b,'c>, <'c,'d>:3, <'e,'f> }}");
      ("C", pv "{{ <'a>, <'b>:2, <'c> }}");
      ("N", pv "{{ <'x, {{<'a>, <'b>:2}}>, <'y, {{<'c>}}>:2 }}");
    ]

type case = {
  name : string;
  query : string;
  limits : Budget.limits;
  faults : string option;  (** armed with seed 3 for the run *)
}

let case ?(limits = Budget.default) ?faults name query =
  { name; query; limits; faults }

let cases =
  [
    case "flat union" "(R ++ S) -- (R /\\ S)";
    case "select product" "pi[1,4](select(p -> p.2 == p.3, R * R))";
    case "union max join" "join[2,1](R, S) \\/ (R * C)";
    case "map tuple body" "map(x -> <x.2, 'k>, R ++ S)";
    case "nested" "unnest[2](nest[1](R)) ++ map(x -> <x.1>, unnest[2](N))";
    case "let dedup" "let T = R ++ R in dedup(T) /\\ T";
    case "fix"
      "fix(X -> dedup(pi[1,4](select(p -> p.2 == p.3, X * R))) \\/ X, R)";
    case "fix stable body" "fix(X -> dedup(R ++ S) \\/ X, R)";
    case "bfix" "bfix(R * C, X -> X ++ X, sing(<'a,'b>) * C)";
    case "powerset" "destroy(powerset(C))";
    case "tight fuel"
      ~limits:{ Budget.default with Budget.fuel = 60 }
      "fix(X -> pi[1,4](select(p -> p.2 == p.3, X * R)) \\/ X, R)";
    case "support verdict"
      ~limits:{ Budget.default with Budget.max_support = 12 }
      "R * R";
    case "power support verdict"
      ~limits:{ Budget.default with Budget.max_support = 20 }
      "powerset(R ++ S)";
    case "eval.step fault" ~faults:"eval.step:n=7"
      "pi[1,4](select(p -> p.2 == p.3, R * R))";
    case "alloc fault" ~faults:"bag.alloc:always,vec.alloc:always" "R * S";
    case "unbound variable" "R ++ Q";
  ]

let with_case_faults c f =
  match c.faults with
  | None -> f ()
  | Some spec -> Fault.with_faults ~seed:3 spec f

let run engine ?telemetry c e =
  let budget = Budget.start c.limits in
  let r =
    with_case_faults c (fun () ->
        match Veval.run_engine engine ~budget ?telemetry env e with
        | r -> Some r
        | exception Eval.Eval_error _ -> None)
  in
  (r, Budget.fuel_spent budget)

let outcome = function
  | Some (Ok v) -> Printf.sprintf "value=%d" (Value.hash v)
  | Some (Error x) ->
      Printf.sprintf "verdict=%s@%d:%s"
        (Budget.resource_to_string x.Budget.resource)
        x.Budget.at_node x.Budget.op
  | None -> "exception"

let end_event e =
  let int k =
    match List.assoc_opt k e.Obs.args with
    | Some (Obs.Int n) -> string_of_int n
    | _ -> "-"
  in
  Printf.sprintf "%s@%s:%s" e.Obs.name (int "node") (int "steps")

let render engine c =
  let e = Baglang.Parser.expr_of_string c.query in
  let tel = Telemetry.create () in
  Obs.enable ();
  let r, fuel =
    Fun.protect ~finally:Obs.disable (fun () -> run engine ~telemetry:tel c e)
  in
  let ends =
    List.filter_map
      (fun ev ->
        if ev.Obs.ph = Obs.E && ev.Obs.cat = "eval" then Some (end_event ev)
        else None)
      (Obs.events ())
  in
  let ops =
    List.filter_map
      (fun a ->
        if a.Telemetry.a_steps = 0 then None
        else Some (Printf.sprintf "%s:%d" a.Telemetry.a_op a.Telemetry.a_steps))
      (Telemetry.per_op tel)
  in
  let _, plain_fuel = run engine c e in
  if plain_fuel <> fuel then
    Alcotest.failf "%s: plain run spent %d fuel, instrumented run %d" c.name
      plain_fuel fuel;
  Printf.sprintf "fuel=%d %s tel=%d ops=%s ends=%s" fuel (outcome r)
    (Telemetry.total_steps tel) (String.concat "," ops) (String.concat " " ends)

(* Captured at the commit before the shared evaluation harness landed. *)
let golden : (string * string) list =
  [
    ( "flat union/tree",
      "fuel=37 value=1637549314540821599 tel=37 \
       ops=var:20,diff:7,union_add:7,inter:3 ends=var S@7:4 var R@6:6 \
       inter@5:3 var S@4:4 var R@3:6 union_add@2:7 diff@1:7 run@-:0" );
    ( "select product/tree",
      "fuel=54 value=-337407282116489951 tel=54 \
       ops=product:26,var:12,map:8,select:8 ends=var R@14:6 var \
       R@13:6 product@12:26 select@7:8 map@1:8 run@-:0" );
    ( "union max join/tree",
      "fuel=59 value=-2789213203447947932 tel=59 \
       ops=var:20,union_max:19,product:16,join:4 ends=var C@7:4 var \
       R@6:6 product@5:16 var S@4:4 var R@3:6 join 2=1@2:4 \
       union_max@1:19 run@-:0" );
    ( "map tuple body/tree",
      "fuel=47 value=3573023987906779076 tel=47 \
       ops=var:16,union_add:7,lit:6,map:6,proj:6,tuple:6 ends=var \
       S@8:4 var R@7:6 union_add@6:7 var x@4:1 proj 2@3:1 lit@5:1 \
       tuple@2:1 var x@4:1 proj 2@3:1 lit@5:1 tuple@2:1 var x@4:1 \
       proj 2@3:1 lit@5:1 tuple@2:1 var x@4:1 proj 2@3:1 lit@5:1 \
       tuple@2:1 var x@4:1 proj 2@3:1 lit@5:1 tuple@2:1 var x@4:1 \
       proj 2@3:1 lit@5:1 tuple@2:1 map@1:6 run@-:0" );
    ( "nested/tree",
      "fuel=35 value=1773756024889625339 tel=35 \
       ops=unnest:10,var:9,union_add:8,nest:5,map:3 ends=var N@10:3 \
       unnest 2@9:4 map@5:3 var R@4:6 nest [1]@3:5 unnest 2@2:6 \
       union_add@1:8 run@-:0" );
    ( "let dedup/tree",
      "fuel=48 value=-3244138517289416626 tel=48 \
       ops=var:24,dedup:6,inter:6,let:6,union_add:6 ends=var R@4:6 \
       var R@3:6 union_add@2:6 var T@8:6 var T@7:6 dedup@6:6 \
       inter@5:6 let T@1:6 run@-:0" );
    ( "fix/tree",
      "fuel=582 value=2500453629475429961 tel=582 \
       ops=product:219,var:124,select:60,union_max:58,dedup:52,map:52,fix:17 \
       ends=var R@19:6 var X@18:6 var R@17:6 var X@16:6 product@15:26 \
       select@10:8 map@4:8 dedup@3:8 union_max@2:10 var X@18:10 var \
       R@17:6 var X@16:10 product@15:46 select@10:13 map@4:12 \
       dedup@3:12 union_max@2:14 var X@18:14 var R@17:6 var X@16:14 \
       product@15:66 select@10:18 map@4:15 dedup@3:15 union_max@2:17 \
       var X@18:17 var R@17:6 var X@16:17 product@15:81 select@10:21 \
       map@4:17 dedup@3:17 union_max@2:17 fix@1:17 run@-:0" );
    ( "fix stable body/tree",
      "fuel=65 value=586100531383411126 tel=65 \
       ops=var:29,union_max:14,dedup:8,fix:7,union_add:7 ends=var \
       R@8:6 var X@7:6 var S@6:4 var R@5:6 union_add@4:7 dedup@3:7 \
       union_max@2:7 var X@7:7 union_max@2:8 fix@1:7 run@-:0" );
    ( "bfix/tree",
      "fuel=55 value=-1084557711473585685 tel=55 \
       ops=var:22,product:20,bfix:4,union_add:4,lit:2,sing:2,tuple:1 \
       ends=var C@4:4 var R@3:6 product@2:16 var C@13:4 lit@11:1 \
       lit@12:1 tuple@10:1 sing@9:2 product@8:4 var X@7:4 var X@6:4 \
       union_add@5:4 bfix@1:4 run@-:0" );
    ( "powerset/tree",
      "fuel=33 value=3970437413608142662 tel=33 \
       ops=powerset:25,destroy:4,var:4 ends=var C@3:4 powerset@2:25 \
       destroy@1:4 run@-:0" );
    ( "tight fuel/tree",
      "fuel=61 verdict=fuel@9:select tel=61 \
       ops=product:26,var:24,select:8,fix:1,map:1,union_max:1 \
       ends=var R@18:6 var X@17:6 var R@16:6 var X@15:6 product@14:26 \
       select@9:8 map@3:1 union_max@2:1 fix@1:1 run@-:0" );
    ( "support verdict/tree",
      "fuel=13 verdict=support@1:product tel=13 ops=var:12,product:1 \
       ends=var R@3:6 var R@2:6 product@1:1 run@-:0" );
    ( "power support verdict/tree",
      "fuel=18 verdict=support@1:powerset tel=18 \
       ops=var:10,union_add:7,powerset:1 ends=var S@4:4 var R@3:6 \
       union_add@2:7 powerset@1:1 run@-:0" );
    ( "eval.step fault/tree",
      "fuel=10 verdict=injected-fault@13:eval.step tel=10 \
       ops=var:7,map:1,product:1,select:1 ends=var R@14:6 var R@13:1 \
       product@12:1 select@7:1 map@1:1 run@-:0" );
    ( "alloc fault/tree",
      "fuel=11 verdict=injected-fault@0:bag.alloc tel=11 \
       ops=var:10,product:1 ends=var S@3:4 var R@2:6 product@1:1 \
       run@-:0" );
    ( "unbound variable/tree",
      "fuel=2 exception tel=2 ops=union_add:1,var:1 ends=var Q@3:1 \
       union_add@1:1 run@-:0" );
    ( "flat union/vec",
      "fuel=39 value=1637549314540821599 tel=39 \
       ops=var:20,union_add:9,diff:7,inter:3 ends=var S@7:4 var R@6:6 \
       inter@5:3 var S@4:4 var R@3:6 union_add@2:9 diff@1:7 run@-:0" );
    ( "select product/vec",
      "fuel=54 value=-337407282116489951 tel=54 \
       ops=product:26,var:12,map:8,select:8 ends=var R@14:6 var \
       R@13:6 product@12:26 select@7:8 map@1:8 run@-:0" );
    ( "union max join/vec",
      "fuel=59 value=-2789213203447947932 tel=59 \
       ops=var:20,union_max:19,product:16,join:4 ends=var C@7:4 var \
       R@6:6 product@5:16 var S@4:4 var R@3:6 join 2=1@2:4 \
       union_max@1:19 run@-:0" );
    ( "map tuple body/vec",
      "fuel=28 value=3573023987906779076 tel=28 \
       ops=var:10,map:9,union_add:9 ends=var S@8:4 var R@7:6 \
       union_add@6:9 map@1:9 run@-:0" );
    ( "nested/vec",
      "fuel=36 value=1773756024889625339 tel=36 \
       ops=unnest:10,var:9,union_add:8,nest:5,map:4 ends=var N@10:3 \
       unnest 2@9:4 map@5:4 var R@4:6 nest [1]@3:5 unnest 2@2:6 \
       union_add@1:8 run@-:0" );
    ( "let dedup/vec",
      "fuel=63 value=-3244138517289416626 tel=63 \
       ops=var:34,union_add:11,dedup:6,inter:6,let:6 ends=var R@4:6 \
       var R@3:6 union_add@2:11 var T@8:11 var T@7:11 dedup@6:6 \
       inter@5:6 let T@1:6 run@-:0" );
    ( "fix/vec",
      "fuel=590 value=2500453629475429961 tel=590 \
       ops=product:219,var:124,map:60,select:60,union_max:58,dedup:52,fix:17 \
       ends=var R@19:6 var X@18:6 var R@17:6 var X@16:6 product@15:26 \
       select@10:8 map@4:8 dedup@3:8 union_max@2:10 var X@18:10 var \
       R@17:6 var X@16:10 product@15:46 select@10:13 map@4:13 \
       dedup@3:12 union_max@2:14 var X@18:14 var R@17:6 var X@16:14 \
       product@15:66 select@10:18 map@4:18 dedup@3:15 union_max@2:17 \
       var X@18:17 var R@17:6 var X@16:17 product@15:81 select@10:21 \
       map@4:21 dedup@3:17 union_max@2:17 fix@1:17 run@-:0" );
    ( "fix stable body/vec",
      "fuel=92 value=586100531383411126 tel=92 \
       ops=var:39,union_add:18,dedup:14,union_max:14,fix:7 ends=var \
       R@8:6 var X@7:6 var S@6:4 var R@5:6 union_add@4:9 dedup@3:7 \
       union_max@2:7 var X@7:7 var S@6:4 var R@5:6 union_add@4:9 \
       dedup@3:7 union_max@2:7 fix@1:7 run@-:0" );
    ( "bfix/vec",
      "fuel=58 value=-1084557711473585685 tel=58 \
       ops=var:22,product:20,union_add:7,bfix:4,lit:2,sing:2,tuple:1 \
       ends=var C@4:4 var R@3:6 product@2:16 var C@13:4 lit@11:1 \
       lit@12:1 tuple@10:1 sing@9:2 product@8:4 var X@7:4 var X@6:4 \
       union_add@5:7 bfix@1:4 run@-:0" );
    ( "powerset/vec",
      "fuel=50 value=3970437413608142662 tel=50 \
       ops=powerset:25,destroy:21,var:4 ends=var C@3:4 powerset@2:25 \
       destroy@1:21 run@-:0" );
    ( "tight fuel/vec",
      "fuel=61 verdict=fuel@9:select tel=61 \
       ops=product:26,var:24,select:8,fix:1,map:1,union_max:1 \
       ends=var R@18:6 var X@17:6 var R@16:6 var X@15:6 product@14:26 \
       select@9:8 map@3:1 union_max@2:1 fix@1:1 run@-:0" );
    ( "support verdict/vec",
      "fuel=13 verdict=support@1:product tel=13 ops=var:12,product:1 \
       ends=var R@3:6 var R@2:6 product@1:1 run@-:0" );
    ( "power support verdict/vec",
      "fuel=20 verdict=support@1:powerset tel=20 \
       ops=var:10,union_add:9,powerset:1 ends=var S@4:4 var R@3:6 \
       union_add@2:9 powerset@1:1 run@-:0" );
    ( "eval.step fault/vec",
      "fuel=10 verdict=injected-fault@13:eval.step tel=10 \
       ops=var:7,map:1,product:1,select:1 ends=var R@14:6 var R@13:1 \
       product@12:1 select@7:1 map@1:1 run@-:0" );
    ( "alloc fault/vec",
      "fuel=11 verdict=injected-fault@0:vec.alloc tel=11 \
       ops=var:10,product:1 ends=var S@3:4 var R@2:6 product@1:1 \
       run@-:0" );
    ( "unbound variable/vec",
      "fuel=2 exception tel=2 ops=union_add:1,var:1 ends=var Q@3:1 \
       union_add@1:1 run@-:0" );
  ]

let check engine c () =
  let key = Printf.sprintf "%s/%s" c.name (Veval.engine_to_string engine) in
  let actual = render engine c in
  match List.assoc_opt key golden with
  | Some expected -> Alcotest.(check string) key expected actual
  | None -> Alcotest.failf "no golden line for %S; actual:\n(%S,\n %S);" key key actual

let () =
  Alcotest.run "accounting"
    (List.map
       (fun engine ->
         ( Veval.engine_to_string engine,
           List.map
             (fun c -> Alcotest.test_case c.name `Quick (check engine c))
             cases ))
       [ Veval.Tree; Veval.Vec ])
