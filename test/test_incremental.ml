(* Incremental maintenance: semi-naive additions and DRed deletions must
   leave the database identical to full recomputation. *)

open Datalog_ast
open Datalog_storage
module I = Datalog_engine.Incremental
module W = Alexander.Workloads

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let atom = Datalog_parser.Parser.atom_of_string
let prog = Datalog_parser.Parser.program_of_string

let saturate program =
  match Datalog_engine.Stratified.run program with
  | Ok outcome -> outcome.Datalog_engine.Stratified.db
  | Error msg -> Alcotest.fail msg

let db_facts db = Gen.db_facts_of (Database.preds db) db

let cnt () = Datalog_engine.Counters.create ()

let test_add_extends_closure () =
  let program = W.ancestor_chain 5 in
  let db = saturate program in
  let before = Database.cardinal db (Pred.make "anc" 2) in
  (* connect node 5 to a new node 6 *)
  (match I.add_facts (cnt ()) program db [ atom "edge(5, 6)" ] with
  | Ok n -> check tbool "inserted something" true (n > 0)
  | Error e -> Alcotest.fail e);
  let after = Database.cardinal db (Pred.make "anc" 2) in
  (* every old node now reaches 6: 6 new anc facts + the edge *)
  check tint "six new ancestor pairs" (before + 6) after;
  check tbool "anc(0,6)" true (Database.mem_atom db (atom "anc(0, 6)"))

let test_add_equals_recompute () =
  let program = W.ancestor_tree ~depth:3 ~fanout:2 in
  let db = saturate program in
  let additions = [ atom "edge(6, 100)"; atom "edge(100, 101)" ] in
  (match I.add_facts (cnt ()) program db additions with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let full =
    saturate
      (Program.make
         ~facts:(Program.facts program @ additions)
         (Program.rules program))
  in
  check tbool "incremental = recomputed" true (db_facts db = db_facts full)

let test_add_duplicate_noop () =
  let program = W.ancestor_chain 4 in
  let db = saturate program in
  let before = Database.total_facts db in
  (match I.add_facts (cnt ()) program db [ atom "edge(0, 1)" ] with
  | Ok n -> check tint "nothing new" 0 n
  | Error e -> Alcotest.fail e);
  check tint "size unchanged" before (Database.total_facts db)

let test_remove_equals_recompute () =
  let program = W.ancestor_chain 8 in
  let db = saturate program in
  (match I.remove_facts (cnt ()) program db [ atom "edge(3, 4)" ] with
  | Ok n -> check tbool "removed something" true (n > 0)
  | Error e -> Alcotest.fail e);
  let remaining_facts =
    List.filter
      (fun a -> not (Atom.equal a (atom "edge(3, 4)")))
      (Program.facts program)
  in
  let full = saturate (Program.make ~facts:remaining_facts (Program.rules program)) in
  check tbool "incremental = recomputed" true (db_facts db = db_facts full);
  check tbool "cut chain: 0 no longer reaches 8" false
    (Database.mem_atom db (atom "anc(0, 8)"))

let test_remove_rederives_alternatives () =
  (* two parallel paths 0->1->3 and 0->2->3: removing one edge keeps
     anc(0,3) alive through the other *)
  let program =
    prog
      "anc(X, Y) :- edge(X, Y). anc(X, Y) :- edge(X, Z), anc(Z, Y).\n\
       edge(0, 1). edge(1, 3). edge(0, 2). edge(2, 3)."
  in
  let db = saturate program in
  (match I.remove_facts (cnt ()) program db [ atom "edge(0, 1)" ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check tbool "anc(0,3) survives via 0->2->3" true
    (Database.mem_atom db (atom "anc(0, 3)"));
  check tbool "anc(0,1) gone" false (Database.mem_atom db (atom "anc(0, 1)"))

let test_negation_rejected () =
  let program = prog "p(X) :- e(X), not q(X). q(1). e(1). e(2)." in
  let db = Database.of_facts (Program.facts program) in
  check tbool "additions rejected" true
    (Result.is_error (I.add_facts (cnt ()) program db [ atom "e(3)" ]));
  check tbool "deletions rejected" true
    (Result.is_error (I.remove_facts (cnt ()) program db [ atom "e(1)" ]))

let prop_incremental_add_equals_recompute =
  QCheck.Test.make
    ~name:"incremental additions = recomputation on random programs"
    ~count:40
    (QCheck.pair Gen.arb_positive_program
       (QCheck.make
          QCheck.Gen.(
            list_size (int_range 1 4) (pair (int_bound 5) (int_bound 5)))))
    (fun (program, new_edges) ->
      let db = saturate program in
      let additions =
        List.map
          (fun (a, b) -> Atom.app "e" [ Term.int a; Term.int b ])
          new_edges
      in
      match I.add_facts (cnt ()) program db additions with
      | Error _ -> false
      | Ok _ ->
        let full =
          saturate
            (Program.make
               ~facts:(Program.facts program @ additions)
               (Program.rules program))
        in
        db_facts db = db_facts full)

let prop_incremental_remove_equals_recompute =
  QCheck.Test.make
    ~name:"DRed deletions = recomputation on random programs" ~count:40
    (QCheck.pair Gen.arb_positive_program (QCheck.make QCheck.Gen.(int_bound 100)))
    (fun (program, pick) ->
      let facts = Program.facts program in
      QCheck.assume (facts <> []);
      let victim = List.nth facts (pick mod List.length facts) in
      let db = saturate program in
      match I.remove_facts (cnt ()) program db [ victim ] with
      | Error _ -> false
      | Ok _ ->
        let remaining = List.filter (fun a -> not (Atom.equal a victim)) facts in
        let full =
          saturate (Program.make ~facts:remaining (Program.rules program))
        in
        db_facts db = db_facts full)

(* ------------------------------------------------------------------ *)
(* Batches, protected IDB facts, compiled maintenance, rollback *)

module G = QCheck.Gen
module L = Datalog_engine.Limits

let compiled = Datalog_engine.Plan.config ()

(* A random positive program, sometimes with facts on its rule-head
   predicates (which DRed must never over-delete). *)
let program_with_idb_facts_gen =
  G.(
    let* program = Gen.positive_program_gen in
    let* idb_facts =
      list_size (int_range 0 4)
        (pair (oneofl [ "p0"; "p1"; "p2" ]) (pair (int_bound 5) (int_bound 5)))
    in
    return
      (Program.make
         ~facts:
           (Program.facts program
           @ List.map
               (fun (p, (a, b)) -> Atom.app p [ Term.int a; Term.int b ])
               idb_facts)
         (Program.rules program)))

(* EDB atoms over the generators' domain: present in the program or not *)
let edb_atoms_gen =
  G.(
    list_size (int_range 0 3)
      (triple (oneofl [ "e"; "f" ]) (int_bound 6) (int_bound 6))
    |> map (List.map (fun (p, a, b) -> Atom.app p [ Term.int a; Term.int b ])))

(* A deletion batch: several program facts (EDB or IDB) plus atoms that
   may be absent from the database. *)
let deletion_batch program =
  G.(
    let facts = Array.of_list (Program.facts program) in
    let* picks = list_size (int_range 1 4) (int_bound 1000) in
    let* absent = edb_atoms_gen in
    return
      ((if facts = [||] then []
        else List.map (fun i -> facts.(i mod Array.length facts)) picks)
      @ absent))

type batch = Add of Atom.t list | Remove of Atom.t list

let print_case (program, batch, _) =
  let atoms = function Add l -> ("add", l) | Remove l -> ("remove", l) in
  let op, l = atoms batch in
  Format.asprintf "%a@.%s %a" Program.pp program op
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Atom.pp)
    l

let case_gen =
  G.(
    let* program = program_with_idb_facts_gen in
    let* batch =
      oneof
        [ map (fun l -> Add l) edb_atoms_gen;
          map (fun l -> Remove l) (deletion_batch program)
        ]
    in
    let* use_plan = bool in
    return (program, batch, use_plan))

let arb_case = QCheck.make ~print:print_case case_gen

let apply ?limits ?plan cnt program db = function
  | Add facts -> I.add_facts cnt ?limits ?plan program db facts
  | Remove facts -> I.remove_facts cnt ?limits ?plan program db facts

let recompute program = function
  | Add facts ->
    saturate
      (Program.make ~facts:(Program.facts program @ facts)
         (Program.rules program))
  | Remove facts ->
    let gone a = List.exists (Atom.equal a) facts in
    saturate
      (Program.make
         ~facts:(List.filter (fun a -> not (gone a)) (Program.facts program))
         (Program.rules program))

let prop_dred_batches =
  QCheck.Test.make
    ~name:"DRed batches = recomputation; interpreted = compiled" ~count:60
    (QCheck.make ~print:print_case
       G.(
         let* program = program_with_idb_facts_gen in
         let* batch = deletion_batch program in
         return (program, Remove batch, true)))
    (fun (program, batch, _) ->
      let expected = db_facts (recompute program batch) in
      let run ?plan maintained =
        let db = saturate program in
        let c = cnt () in
        match apply ?plan c maintained db batch with
        | Error _ -> None
        | Ok _ -> Some (db_facts db, c.Datalog_engine.Counters.facts_derived)
      in
      (* the compiled run gets only the rules plus the facts on rule-head
         predicates, as the service passes them: DRed needs no others *)
      let idb_only =
        Program.make
          ~facts:
            (List.filter
               (fun a -> Program.is_idb program (Atom.pred a))
               (Program.facts program))
          (Program.rules program)
      in
      match (run program, run ~plan:compiled idb_only) with
      | Some (fi, di), Some (fc, dc) -> fi = expected && fc = expected && di = dc
      | _ -> false)

let prop_add_interpreted_equals_compiled =
  QCheck.Test.make ~name:"additions: interpreted = compiled maintenance"
    ~count:40
    (QCheck.make ~print:print_case
       G.(
         let* program = program_with_idb_facts_gen in
         let* adds = edb_atoms_gen in
         return (program, Add adds, true)))
    (fun (program, batch, _) ->
      let run ?plan () =
        let db = saturate program in
        let c = cnt () in
        match apply ?plan c program db batch with
        | Error _ -> None
        | Ok n -> Some (db_facts db, n, c.Datalog_engine.Counters.facts_derived)
      in
      match (run (), run ~plan:compiled ()) with
      | (Some (f, _, _) as i), (Some _ as c) ->
        i = c && f = db_facts (recompute program batch)
      | _ -> false)

(* Rollback restores the pre-state at every budget cut-off: with
   [max_facts = k] for each [k] below the unbudgeted derivation count the
   call must fail and leave exactly the pre-call facts, and a later
   unbudgeted call on the same database must still reach the recomputed
   state (the indexes survived the undo); from the count upwards the call
   succeeds. *)
let prop_rollback_every_cutoff =
  QCheck.Test.make ~name:"rollback = pre-state at every budget cut-off"
    ~count:40 arb_case
    (fun (program, batch, use_plan) ->
      let plan = if use_plan then Some compiled else None in
      let expected = db_facts (recompute program batch) in
      let saturated = saturate program in
      let pre = db_facts saturated in
      let derivations =
        let c = cnt () in
        match apply ?plan c program (Database.copy saturated) batch with
        | Ok _ -> c.Datalog_engine.Counters.facts_derived
        | Error _ -> -1
      in
      derivations >= 0
      && List.for_all
           (fun k ->
             let db = Database.copy saturated in
             match
               apply ~limits:(L.make ~max_facts:k ()) ?plan (cnt ()) program
                 db batch
             with
             | Ok _ -> k >= derivations && db_facts db = expected
             | Error _ ->
               k < derivations
               && db_facts db = pre
               && Result.is_ok (apply ?plan (cnt ()) program db batch)
               && db_facts db = expected)
           (List.init (derivations + 1) Fun.id))

let suite =
  [ ( "incremental",
      [ Alcotest.test_case "add extends closure" `Quick test_add_extends_closure;
        Alcotest.test_case "add = recompute" `Quick test_add_equals_recompute;
        Alcotest.test_case "duplicate add" `Quick test_add_duplicate_noop;
        Alcotest.test_case "remove = recompute" `Quick test_remove_equals_recompute;
        Alcotest.test_case "re-derivation" `Quick test_remove_rederives_alternatives;
        Alcotest.test_case "negation rejected" `Quick test_negation_rejected
      ] );
    ( "incremental:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_incremental_add_equals_recompute;
          prop_incremental_remove_equals_recompute;
          prop_dred_batches;
          prop_add_interpreted_equals_compiled;
          prop_rollback_every_cutoff
        ] )
  ]
