open Datalog_ast
open Datalog_storage

let ensure_positive program =
  if List.exists (fun r -> Rule.negative_body r <> []) (Program.rules program)
  then
    Error
      "incremental maintenance requires a positive program (negation can \
       retract under additions); recompute instead"
  else Ok ()

(* Maintenance plans put the delta literal first and use hash probes
   only.  A maintenance delta is a handful of tuples, so every other
   literal should be probed from it; and the relations those probes read
   change on every transaction, so a merge join's sorted view would be
   rebuilt per call — O(relation) work for an O(change) join. *)
let maintenance_config (cfg : Plan.config) =
  { cfg with Plan.sip = Plan.Cost; merge = false }

(* One delta specialization of a rule: position [i] reads the delta, the
   rest the full database — interpreted, or through a compiled plan. *)
let delta_applier cnt ~guard ~profile ~neg ?plan ~card ~delta_pos rule =
  match plan with
  | None ->
    fun ~rel_of emit ->
      Eval.apply_rule cnt ~guard ~profile ~rel_of ~neg rule emit
  | Some cfg ->
    let p = Plan.compile cfg ~card ~delta_pos rule in
    fun ~rel_of emit -> Plan.run p cnt ~guard ~profile ~rel_of ~neg emit

(* Per rule, the delta-readable positions with their appliers (compiled
   once per maintenance call, not once per propagation round). *)
let delta_apps cnt ~guard ~profile ~neg ?plan ~card rules =
  List.map
    (fun rule ->
      let apps =
        List.mapi (fun i lit -> (i, lit)) (Rule.body rule)
        |> List.filter_map (fun (i, lit) ->
               match lit with
               | Literal.Pos a ->
                 Some
                   ( i,
                     Atom.pred a,
                     delta_applier cnt ~guard ~profile ~neg ?plan ~card
                       ~delta_pos:i rule )
               | Literal.Neg _ | Literal.Cmp _ -> None)
      in
      (rule, apps))
    rules

(* The undo log: every physical change a call makes to the database,
   newest first.  A change is logged the moment it happens, before any
   budget check can raise, so replaying the log restores the pre-call
   fact set exactly — in O(change), where a backup copy costs
   O(database). *)
type change = Inserted of Pred.t * Tuple.t | Removed of Pred.t * Tuple.t

let insert undo db pred tuple =
  Database.add db pred tuple
  && begin
       undo := Inserted (pred, tuple) :: !undo;
       true
     end

let delete undo db pred tuple =
  Database.remove db pred tuple
  && begin
       undo := Removed (pred, tuple) :: !undo;
       true
     end

let undo_all db log =
  List.iter
    (function
      | Inserted (pred, tuple) -> ignore (Database.remove db pred tuple)
      | Removed (pred, tuple) -> ignore (Database.add db pred tuple))
    log

(* Store one derived tuple in [db] (logged) and, if it is new there, in
   the next delta [next]. *)
let derive cnt guard profile undo db next pred tuple =
  if insert undo db pred tuple then begin
    cnt.Counters.facts_derived <- cnt.Counters.facts_derived + 1;
    Profile.derived profile pred;
    if Limits.is_active guard then
      Limits.check_relation guard (Database.rel db pred);
    ignore (Database.add next pred tuple)
  end

(* Delta-driven propagation: fire every rule with one body position
   reading the delta and the rest reading the full database, inserting
   consequences into both the database and the next delta. *)
let propagate cnt guard profile ?plan ~undo rules db delta =
  let current = ref delta in
  let neg = Eval.closed_world_neg db in
  let card pred = Database.cardinal db pred in
  let rule_apps = delta_apps cnt ~guard ~profile ~neg ?plan ~card rules in
  while Database.total_facts !current > 0 do
    cnt.Counters.iterations <- cnt.Counters.iterations + 1;
    Limits.check_round guard;
    let next = Database.create () in
    Profile.with_round profile cnt (fun () ->
        List.iter
          (fun (rule, apps) ->
            Profile.with_rule profile cnt rule @@ fun () ->
            List.iter
              (fun (i, apred, app) ->
                if Database.cardinal !current apred > 0 then begin
                  let cur = !current in
                  let rel_of j pred =
                    if j = i then Database.find cur pred
                    else Database.find db pred
                  in
                  app ~rel_of (derive cnt guard profile undo db next)
                end)
              apps)
          rule_apps);
    current := next
  done

(* DRed's re-derivation step.  The remaining database is a subset of the
   saturated pre-state, so one rule step over it yields only remaining or
   over-deleted tuples.  Evaluating [head :- head, body] with the head
   literal reading the over-deleted set therefore finds exactly the
   over-deleted tuples that still have a derivation, touching nothing
   else.  They are stored and returned as the first delta for
   {!propagate}, which restores whatever depends on them. *)
let rederive cnt guard profile ?plan ~undo rules db deleted =
  let delta = Database.create () in
  let neg = Eval.closed_world_neg db in
  let card pred = Database.cardinal db pred in
  List.iter
    (fun rule ->
      let head = Rule.head rule in
      if Database.cardinal deleted (Atom.pred head) > 0 then begin
        let app =
          delta_applier cnt ~guard ~profile ~neg ?plan ~card ~delta_pos:0
            (Rule.make head (Literal.pos head :: Rule.body rule))
        in
        let rel_of j pred =
          if j = 0 then Database.find deleted pred else Database.find db pred
        in
        Profile.with_rule profile cnt rule @@ fun () ->
        app ~rel_of (derive cnt guard profile undo db delta)
      end)
    rules;
  delta

let exhausted_error reason =
  Error
    (Printf.sprintf
       "incremental maintenance exhausted its budget (%s); the database \
        was rolled back to its pre-call state - raise the budget and retry, \
        or recompute from the program"
       (Limits.reason_name reason))

(* Exhaustion mid-propagation would leave [db] half-maintained — no
   longer equal to the recomputed database — so both operations are
   transactional: every change goes through the undo log, which is
   replayed in reverse if the budget runs out. *)
let with_rollback db f =
  let undo = ref [] in
  match f undo with
  | r -> r
  | exception Limits.Out_of_budget reason ->
    undo_all db !undo;
    exhausted_error reason

(* Which predicates did a maintenance call touch?  Both operations are
   monotone in one direction (additions only grow relations, DRed's net
   effect only shrinks them), so comparing per-relation cardinalities
   around the call identifies exactly the changed predicates — without
   threading a hook through every insertion site. *)
let with_change_report on_change db f =
  match on_change with
  | None -> f ()
  | Some notify -> (
    let before =
      List.map (fun p -> (p, Database.cardinal db p)) (Database.preds db)
    in
    match f () with
    | Error _ as e -> e (* rolled back or refused: nothing changed *)
    | Ok _ as ok ->
      List.iter
        (fun pred ->
          let old_card =
            match List.assoc_opt pred before with None -> 0 | Some c -> c
          in
          if Database.cardinal db pred <> old_card then notify pred)
        (Database.preds db);
      ok)

let add_facts cnt ?(limits = Limits.none) ?(profile = Profile.none) ?plan
    ?on_change program db facts =
  match ensure_positive program with
  | Error _ as e -> e
  | Ok () ->
    let plan = Option.map maintenance_config plan in
    with_change_report on_change db @@ fun () ->
    with_rollback db @@ fun undo ->
    let guard = Limits.guard limits cnt in
    let before = Database.total_facts db in
    let delta = Database.create () in
    List.iter
      (fun a ->
        let pred = Atom.pred a and tuple = Tuple.of_atom a in
        if insert undo db pred tuple then ignore (Database.add delta pred tuple))
      facts;
    propagate cnt guard profile ?plan ~undo (Program.rules program) db delta;
    Ok (Database.total_facts db - before)

let remove_facts cnt ?(limits = Limits.none) ?(profile = Profile.none) ?plan
    ?on_change program db facts =
  match ensure_positive program with
  | Error _ as e -> e
  | Ok () ->
    let plan = Option.map maintenance_config plan in
    with_change_report on_change db @@ fun () ->
    with_rollback db @@ fun undo ->
    let guard = Limits.guard limits cnt in
    let rules = Program.rules program in
    let before = Database.total_facts db in
    (* Program facts on rule-head predicates (minus the requested
       deletions) are protected from over-deletion: re-derivation can
       only restore tuples some rule derives.  Facts on other predicates
       are never rule heads, so over-deletion cannot reach them. *)
    let protected = Database.create () in
    List.iter
      (fun a ->
        if Program.is_idb program (Atom.pred a) then
          ignore (Database.add_atom protected a))
      (Program.facts program);
    List.iter (fun a -> ignore (Database.remove_atom protected a)) facts;
    (* Phase 1: over-delete.  Any head tuple one of whose derivations (in
       the PRE-deletion database) consumed a deleted tuple is marked. *)
    let deleted = Database.create () in
    List.iter
      (fun a ->
        if Database.mem_atom db a then ignore (Database.add_atom deleted a))
      facts;
    let frontier = ref (Database.copy deleted) in
    let over_delete_apps =
      delta_apps cnt ~guard ~profile:Profile.none
        ~neg:(Eval.closed_world_neg db) ?plan
        ~card:(fun pred -> Database.cardinal db pred)
        rules
    in
    while Database.total_facts !frontier > 0 do
      cnt.Counters.iterations <- cnt.Counters.iterations + 1;
      Limits.check_round guard;
      let next = Database.create () in
      List.iter
        (fun (_rule, apps) ->
          List.iter
            (fun (i, apred, app) ->
              if Database.cardinal !frontier apred > 0 then begin
                let front = !frontier in
                let rel_of j pred =
                  if j = i then Database.find front pred
                  else Database.find db pred
                in
                app ~rel_of (fun pred tuple ->
                    if
                      Database.mem db pred tuple
                      && (not (Database.mem protected pred tuple))
                      && Database.add deleted pred tuple
                    then ignore (Database.add next pred tuple))
              end)
            apps)
        over_delete_apps;
      frontier := next
    done;
    (* Phase 2: physically remove the over-deleted tuples. *)
    Database.iter
      (fun pred rel ->
        Relation.iter (fun t -> ignore (delete undo db pred t)) rel)
      deleted;
    (* Phase 3: re-derive what still has a derivation, then propagate. *)
    let delta = rederive cnt guard profile ?plan ~undo rules db deleted in
    propagate cnt guard profile ?plan ~undo rules db delta;
    Ok (before - Database.total_facts db)
