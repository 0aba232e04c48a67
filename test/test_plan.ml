(* Differential tests for the compiled join-plan path (Plan) against the
   interpreted substitution path (Eval) — the oracle.  Under the
   left-to-right SIP the two must agree answer-for-answer and
   counter-for-counter on every strategy; under the cost-aware SIP the
   answers (and, for the fixpoint family, the firings) stay invariant
   while the join work changes.  Plus: unsafe-rule dialect parity, the
   incremental engine, a golden explain plan, and the Seki equivalence
   under both SIPs. *)

open Datalog_ast
module O = Alexander.Options
module S = Alexander.Solve
module E = Alexander.Equivalence
module C = Datalog_engine.Counters
module Plan = Datalog_engine.Plan

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let tstrings = Alcotest.(list string)

let prog = Datalog_parser.Parser.program_of_string
let atom = Datalog_parser.Parser.atom_of_string
let rule = Datalog_parser.Parser.rule_of_string

let opts ?(compile = true) ?(merge = true)
    ?(sips = Datalog_rewrite.Sips.Left_to_right) ?(negation = O.Auto) strategy
    =
  { O.default with O.strategy; compile; merge; sips; negation }

let counters (r : S.report) =
  let c = r.S.counters in
  (c.C.probes, c.C.scanned, c.C.firings, c.C.facts_derived)

let firings (r : S.report) = r.S.counters.C.firings

(* ------------------------------------------------------------------ *)
(* qcheck: compiled = interpreted, per strategy *)

let strategies_under_test =
  [ O.Naive; O.Seminaive; O.Magic; O.Supplementary; O.Supplementary_idb;
    O.Alexander; O.Tabled ]

(* Under ltr, answers AND all counters must coincide. *)
let prop_ltr_parity arb tag count =
  List.map
    (fun strategy ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "compiled = interpreted (%s, ltr, %s)"
             (O.strategy_name strategy) tag)
        ~count arb
        (fun (program, query) ->
          match
            ( S.run ~options:(opts ~merge:false strategy) program query,
              S.run ~options:(opts ~compile:false strategy) program query )
          with
          | Ok a, Ok b ->
            a.S.answers = b.S.answers && counters a = counters b
          | Error _, Error _ -> true
          | Ok _, Error _ | Error _, Ok _ -> false))
    strategies_under_test

(* Under the cost SIP the literal order changes, so only the answer set
   is pinned.  (Not even firings survive a reorder in general: a body
   that reads its own head predicate sees mid-round insertions at
   different times under different join orders, so per-round match
   counts shift even though the fixpoint is identical.) *)
let prop_cost_parity arb tag count =
  List.map
    (fun strategy ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "compiled = interpreted (%s, cost, %s)"
             (O.strategy_name strategy) tag)
        ~count arb
        (fun (program, query) ->
          let sips = Datalog_rewrite.Sips.Cost_aware in
          match
            ( S.run ~options:(opts ~sips strategy) program query,
              S.run ~options:(opts ~sips ~compile:false strategy) program query
            )
          with
          | Ok a, Ok b -> a.S.answers = b.S.answers
          | Error _, Error _ -> true
          | Ok _, Error _ | Error _, Ok _ -> false))
    strategies_under_test

(* The non-stratified-capable evaluators, driven through the seminaive
   strategy with the negation mode forced. *)
let prop_negation_modes =
  List.map
    (fun (name, negation) ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "compiled = interpreted (%s evaluator, ltr)" name)
        ~count:20 Gen.arb_stratified_program_query
        (fun (program, query) ->
          match
            ( S.run ~options:(opts ~negation ~merge:false O.Seminaive) program
                query,
              S.run
                ~options:(opts ~negation ~compile:false O.Seminaive)
                program query )
          with
          | Ok a, Ok b ->
            a.S.answers = b.S.answers && counters a = counters b
          | Error _, Error _ -> true
          | Ok _, Error _ | Error _, Ok _ -> false))
    [ ("conditional", O.Conditional); ("wellfounded", O.Well_founded) ]

(* ------------------------------------------------------------------ *)
(* Unit: comparison literals, including the both-unbound Eq alias *)

let cmp_program =
  prog
    "e(1, 2). e(2, 3). e(3, 4).\n\
     big(X) :- e(X, Y), Y > 2.\n\
     alias(X, Y) :- e(X, Z), Y = Z.\n\
     shifted(X, Y) :- e(X, Z), Y = 9, Z < 4."

let test_cmp_parity () =
  List.iter
    (fun q ->
      let query = atom q in
      List.iter
        (fun strategy ->
          let a =
            S.run_exn ~options:(opts ~merge:false strategy) cmp_program query
          in
          let b =
            S.run_exn ~options:(opts ~compile:false strategy) cmp_program query
          in
          check tbool
            (Printf.sprintf "answers %s (%s)" q (O.strategy_name strategy))
            true
            (a.S.answers = b.S.answers);
          check tbool
            (Printf.sprintf "counters %s (%s)" q (O.strategy_name strategy))
            true
            (counters a = counters b))
        [ O.Seminaive; O.Alexander ])
    [ "big(X)"; "alias(1, Y)"; "shifted(2, Y)" ]

(* The tabled dialect rejects the both-unbound alias that the rule dialect
   evaluates; compiled and interpreted must agree on that too. *)
let test_alias_dialects () =
  let query = atom "alias(1, Y)" in
  let run compile =
    S.run ~options:(opts ~compile O.Seminaive) cmp_program query
  in
  (match run true, run false with
  | Ok a, Ok b ->
    check tbool "rule dialect evaluates the alias" true
      (a.S.answers = b.S.answers && a.S.answers <> [])
  | _ -> Alcotest.fail "seminaive alias failed");
  let tabled compile =
    match S.run ~options:(opts ~compile O.Tabled) cmp_program query with
    | Ok r -> `Answers r.S.answers
    | Error e -> `Error (Alexander.Errors.message e)
  in
  check tbool "tabled agrees with itself compiled vs interpreted" true
    (tabled true = tabled false)

(* ------------------------------------------------------------------ *)
(* Unit: unsafe-rule message parity at the engine level *)

open Datalog_storage
open Datalog_engine

let fixpoint_error ?plan program =
  let db = Database.of_facts (Program.facts program) in
  let cnt = Counters.create () in
  match
    Fixpoint.seminaive cnt ?plan ~db
      ~neg:(Eval.closed_world_neg db)
      (Program.rules program)
  with
  | () -> None
  | exception Eval.Unsafe_rule msg -> Some msg

let test_unsafe_parity () =
  let cases =
    [ (* comparison reached with an unbound variable *)
      "p(X) :- e(X, Y), W < Y.\ne(1, 2).";
      (* negative literal not ground at evaluation time *)
      "p(X) :- e(X, Y), not q(W).\nq(5, 5).\ne(1, 2).";
      (* non-ground head *)
      "p(X, W) :- e(X, Y).\ne(1, 2)."
    ]
  in
  List.iter
    (fun src ->
      let program = prog src in
      let interpreted = fixpoint_error program in
      let compiled = fixpoint_error ~plan:(Plan.config ()) program in
      check tbool (Printf.sprintf "both raise (%s)" src) true
        (Option.is_some interpreted && Option.is_some compiled);
      check tstr "same message" (Option.get interpreted) (Option.get compiled))
    cases

(* ------------------------------------------------------------------ *)
(* Unit: semi-naive delta rules, compiled = interpreted *)

let test_delta_parity () =
  let program = Alexander.Workloads.ancestor_chain 60 in
  let query = atom "anc(10, X)" in
  let a = S.run_exn ~options:(opts ~merge:false O.Seminaive) program query in
  let b = S.run_exn ~options:(opts ~compile:false O.Seminaive) program query in
  check tint "answers" (List.length a.S.answers) (List.length b.S.answers);
  check tbool "counters" true (counters a = counters b);
  check tint "iterations" a.S.counters.C.iterations b.S.counters.C.iterations

(* ------------------------------------------------------------------ *)
(* Unit: the incremental engine with and without plans *)

let test_incremental_parity () =
  let program = Alexander.Workloads.ancestor_chain 30 in
  let run plan =
    let db = Database.of_facts (Program.facts program) in
    let cnt = Counters.create () in
    (match
       Incremental.add_facts cnt ?plan program db
         [ atom "edge(30, 31)"; atom "edge(31, 32)" ]
     with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    (match Incremental.remove_facts cnt ?plan program db [ atom "edge(5, 6)" ] with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    (Gen.db_facts_of (Gen.idb_preds program) db, cnt.C.facts_derived)
  in
  let facts_i, derived_i = run None in
  let facts_c, derived_c = run (Some (Plan.config ())) in
  check tbool "same database" true (facts_i = facts_c);
  check tint "same derivations" derived_i derived_c

(* ------------------------------------------------------------------ *)
(* Golden explain: the compiled plan of the canonical ancestor rule *)

let test_golden_explain () =
  let r = rule "anc(X, Y) :- edge(X, Z), anc(Z, Y)." in
  let cfg = Plan.config () in
  (* the full variant probes the rule's own head predicate, which is not
     frozen during a rule application — no merge fusion *)
  let info = Plan.info (Plan.compile cfg ~card:(fun _ -> 0) r) in
  check tstr "variant" "full" info.Plan.i_variant;
  check tstr "sip" "ltr" info.Plan.i_sip;
  check tstrings "steps"
    [ "scan edge/2 match[0:=X,1:=Z]";
      "probe anc/2 key[0=Z] match[1:=Y]";
      "emit anc(X,Y)"
    ]
    info.Plan.i_steps;
  (* the delta literal never changes mid-round, so the same probe fuses *)
  let delta = Plan.info (Plan.compile cfg ~card:(fun _ -> 0) ~delta_pos:1 r) in
  check tstr "delta variant" "delta@1" delta.Plan.i_variant;
  check tstrings "delta steps"
    [ "merge edge/2 match[0:=X,1:=Z] * anc/2 key[0=Z] match[1:=Y]";
      "emit anc(X,Y)"
    ]
    delta.Plan.i_steps;
  (* with merge fusion off, the unfused pair comes back *)
  let nomerge_cfg = Plan.config ~merge:false () in
  let nomerge =
    Plan.info (Plan.compile nomerge_cfg ~card:(fun _ -> 0) ~delta_pos:1 r)
  in
  check tstrings "delta steps (no merge)"
    [ "scan edge/2 match[0:=X,1:=Z]";
      "probe anc/2 key[0=Z] match[1:=Y]";
      "emit anc(X,Y)"
    ]
    nomerge.Plan.i_steps;
  (* cost SIP: make anc much smaller than edge, so the body is reordered
     to scan anc first and probe edge through the bound Z; edge is not
     the head predicate, so the pair fuses *)
  let cost_cfg = Plan.config ~sip:Plan.Cost () in
  let card p = if Pred.name p = "anc" then 5 else 100 in
  let cost = Plan.info (Plan.compile cost_cfg ~card r) in
  check Alcotest.(list int) "cost order" [ 1; 0 ] cost.Plan.i_order;
  check tstrings "cost steps"
    [ "merge anc/2 match[0:=Z,1:=Y] * edge/2 key[1=Z] match[0:=X]";
      "emit anc(X,Y)"
    ]
    cost.Plan.i_steps

(* --explain surfaces the same plans through the report *)
let test_report_plans () =
  let program = Alexander.Workloads.ancestor_chain 10 in
  let options = { (opts O.Seminaive) with O.explain = true } in
  let report = S.run_exn ~options program (atom "anc(0, X)") in
  check tbool "plans reported" true (report.S.plans <> []);
  check tbool "full and delta variants present" true
    (List.exists (fun i -> i.Plan.i_variant = "full") report.S.plans
    && List.exists
         (fun i -> String.length i.Plan.i_variant >= 5
                   && String.sub i.Plan.i_variant 0 5 = "delta")
         report.S.plans);
  let interpreted =
    S.run_exn
      ~options:{ options with O.compile = false }
      program (atom "anc(0, X)")
  in
  check tbool "no plans when interpreted" true (interpreted.S.plans = [])

(* ------------------------------------------------------------------ *)
(* The Seki equivalence must hold under both SIPs *)

let test_equivalence_under_sips () =
  List.iter
    (fun (name, sips) ->
      List.iter
        (fun (wname, program, q) ->
          match E.check ~sips program (atom q) with
          | Error msg -> Alcotest.fail msg
          | Ok outcome ->
            check tbool
              (Printf.sprintf "equivalent (%s, %s)" wname name)
              true outcome.E.equivalent)
        [ ("anc chain", Alexander.Workloads.ancestor_chain 80, "anc(20, X)");
          ( "same gen",
            Alexander.Workloads.same_generation ~layers:5 ~width:6,
            "sg(0, X)" )
        ])
    [ ("ltr", Datalog_rewrite.Sips.Left_to_right);
      ("cost", Datalog_rewrite.Sips.Cost_aware)
    ]

(* ------------------------------------------------------------------ *)
(* The cost SIP actually reduces join work on the bound-chain workload
   (the acceptance criterion of the plan compiler) *)

let test_cost_reduces_work () =
  let program = Alexander.Workloads.ancestor_chain 100 in
  let query = atom "anc(75, X)" in
  let ltr = S.run_exn ~options:(opts O.Seminaive) program query in
  let cost =
    S.run_exn
      ~options:(opts ~sips:Datalog_rewrite.Sips.Cost_aware O.Seminaive)
      program query
  in
  check tbool "same answers" true (ltr.S.answers = cost.S.answers);
  check tint "same firings" (firings ltr) (firings cost);
  check tbool "fewer probes" true
    (cost.S.counters.C.probes < ltr.S.counters.C.probes);
  check tbool "less scanned" true
    (cost.S.counters.C.scanned < ltr.S.counters.C.scanned)

(* ------------------------------------------------------------------ *)
(* Merge-join plans vs hash-join plans: byte-identical answers and fact
   counters; probes may only drop *)

let merge_invariants (r : S.report) =
  let c = r.S.counters in
  (r.S.answers, c.C.scanned, c.C.firings, c.C.facts_derived, c.C.iterations)

let prop_merge_parity arb tag count =
  List.map
    (fun strategy ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "merge = hash join (%s, %s)"
             (O.strategy_name strategy) tag)
        ~count arb
        (fun (program, query) ->
          match
            ( S.run ~options:(opts strategy) program query,
              S.run ~options:(opts ~merge:false strategy) program query )
          with
          | Ok m, Ok h ->
            merge_invariants m = merge_invariants h
            && m.S.counters.C.probes <= h.S.counters.C.probes
            && h.S.counters.C.merge_steps = 0
            && h.S.counters.C.gallops = 0
          | Error _, Error _ -> true
          | Ok _, Error _ | Error _, Ok _ -> false))
    strategies_under_test

let test_merge_reduces_probes () =
  let program = Alexander.Workloads.ancestor_chain 80 in
  let query = atom "anc(20, X)" in
  List.iter
    (fun strategy ->
      let m = S.run_exn ~options:(opts strategy) program query in
      let h = S.run_exn ~options:(opts ~merge:false strategy) program query in
      let name fmt =
        Printf.sprintf "%s (%s)" fmt (O.strategy_name strategy)
      in
      check tbool (name "same answers+facts") true
        (merge_invariants m = merge_invariants h);
      check tbool (name "merge steps ran") true
        (m.S.counters.C.merge_steps > 0);
      check tbool (name "gallops ran") true (m.S.counters.C.gallops > 0);
      check tbool (name "fewer probes") true
        (m.S.counters.C.probes < h.S.counters.C.probes))
    [ O.Seminaive; O.Magic; O.Supplementary; O.Supplementary_idb; O.Alexander ]

(* ------------------------------------------------------------------ *)
(* One evaluation path: the compiled plans run on the calling domain, so
   a query's answers and every counter, gallops included, are a function
   of the program and the options alone. *)

let all_counters (r : S.report) =
  let c = r.S.counters in
  ( c.C.facts_derived,
    c.C.firings,
    c.C.probes,
    c.C.scanned,
    c.C.iterations,
    c.C.merge_steps,
    c.C.gallops,
    c.C.subsumed )

let test_serial_runs_repeat () =
  let program = Alexander.Workloads.ancestor_chain 260 in
  let query = atom "anc(100, X)" in
  List.iter
    (fun strategy ->
      let run () = S.run_exn ~options:(opts strategy) program query in
      let a = run () and b = run () in
      let name = O.strategy_name strategy in
      (* the nodes below 100 on a 260-edge chain *)
      check tint (name ^ ": answers") 160 (List.length a.S.answers);
      check tbool (name ^ ": same answers") true (a.S.answers = b.S.answers);
      check tbool (name ^ ": same counters") true
        (all_counters a = all_counters b))
    [ O.Seminaive; O.Magic; O.Alexander; O.Supplementary ]

let test_serial_same_generation () =
  let program = Alexander.Workloads.same_generation ~layers:6 ~width:10 in
  let query = atom "sg(0, X)" in
  let answers strategy =
    (S.run_exn ~options:(opts strategy) program query).S.answers
  in
  let reference = answers O.Seminaive in
  check tbool "some answers" true (reference <> []);
  List.iter
    (fun strategy ->
      check tbool
        (O.strategy_name strategy ^ " = seminaive")
        true
        (answers strategy = reference))
    [ O.Magic; O.Alexander; O.Supplementary ]

let test_serial_negation () =
  let program =
    prog
      ("reach(X) :- source(X).\n\
        reach(Y) :- reach(X), edge(X, Y).\n\
        dead(X) :- node(X), not reach(X).\n\
        source(0)."
      ^ String.concat ""
          (List.init 150 (fun i -> Printf.sprintf "edge(%d, %d)." i (i + 1)))
      ^ String.concat ""
          (List.init 200 (fun i -> Printf.sprintf "node(%d)." i)))
  in
  let report =
    S.run_exn ~options:(opts ~merge:false O.Seminaive) program (atom "dead(X)")
  in
  (* 0..150 are reachable; 151..199 are not *)
  check tint "dead nodes" 49 (List.length report.S.answers);
  check tbool "compiled (hash joins) = interpreted" true
    (counters report
    = counters
        (S.run_exn ~options:(opts ~compile:false O.Seminaive) program
           (atom "dead(X)")))

(* profiling only observes: switching it on changes no counter *)
let test_profile_does_not_perturb () =
  List.iter
    (fun (program, query) ->
      List.iter
        (fun strategy ->
          let plain = S.run_exn ~options:(opts strategy) program query in
          let profiled =
            S.run_exn
              ~options:{ (opts strategy) with O.profile = true }
              program query
          in
          check tbool
            (O.strategy_name strategy ^ ": same counters")
            true
            (all_counters plain = all_counters profiled))
        [ O.Seminaive; O.Alexander ])
    [ (Alexander.Workloads.ancestor_chain 120, atom "anc(30, X)");
      ( Alexander.Workloads.same_generation ~layers:5 ~width:8,
        atom "sg(0, X)" )
    ]

(* a fact cap stops the compiled path soundly: a partial answer set that
   is a subset of the full one *)
let test_fact_cap_sound () =
  let program = Alexander.Workloads.ancestor_chain 260 in
  let query = atom "anc(100, X)" in
  let full = S.run_exn ~options:(opts O.Seminaive) program query in
  let options =
    { (opts O.Seminaive) with
      O.limits = Datalog_engine.Limits.make ~max_facts:500 ()
    }
  in
  let partial = S.run_exn ~options program query in
  check tbool "exhausted" true (S.incomplete partial);
  check tbool "fewer answers" true
    (List.length partial.S.answers < List.length full.S.answers);
  check tbool "partial answers are a subset" true
    (List.for_all (fun a -> List.mem a full.S.answers) partial.S.answers)

let suite =
  [ ( "plan",
      [ Alcotest.test_case "cmp parity" `Quick test_cmp_parity;
        Alcotest.test_case "alias dialects" `Quick test_alias_dialects;
        Alcotest.test_case "unsafe message parity" `Quick test_unsafe_parity;
        Alcotest.test_case "delta parity" `Quick test_delta_parity;
        Alcotest.test_case "incremental parity" `Quick test_incremental_parity;
        Alcotest.test_case "golden explain" `Quick test_golden_explain;
        Alcotest.test_case "report plans" `Quick test_report_plans;
        Alcotest.test_case "equivalence under both sips" `Quick
          test_equivalence_under_sips;
        Alcotest.test_case "cost sip reduces work" `Quick
          test_cost_reduces_work;
        Alcotest.test_case "merge join reduces probes" `Quick
          test_merge_reduces_probes
      ]
      @ List.map QCheck_alcotest.to_alcotest
          (prop_ltr_parity Gen.arb_positive_program_query "positive" 40
          @ prop_cost_parity Gen.arb_positive_program_query "positive" 25
          @ prop_ltr_parity Gen.arb_stratified_program_query "stratified" 25
          @ prop_merge_parity Gen.arb_positive_program_query "positive" 40
          @ prop_merge_parity Gen.arb_stratified_program_query "stratified" 25
          @ prop_negation_modes) );
    ( "plan:serial",
      [ Alcotest.test_case "repeated runs agree" `Quick test_serial_runs_repeat;
        Alcotest.test_case "same generation" `Quick test_serial_same_generation;
        Alcotest.test_case "negation" `Quick test_serial_negation;
        Alcotest.test_case "profiling changes no counter" `Quick
          test_profile_does_not_perturb;
        Alcotest.test_case "fact cap stays sound" `Quick test_fact_cap_sound
      ] )
  ]
