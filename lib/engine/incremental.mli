(** Incremental maintenance of a saturated database.

    Additions are monotone for positive programs, so they propagate by
    resuming the semi-naive fixpoint with the new facts as the first
    delta.  Deletions use DRed (delete and re-derive, Gupta–Mumick–
    Subrahmanian): first over-delete everything whose some derivation used
    a deleted fact, then re-derive what still has an alternative
    derivation from the remainder.

    Both operations cost O(change), not O(database): propagation and
    over-deletion are driven by deltas, and re-derivation only evaluates
    rules against the over-deleted tuples (the {e local} re-derive step:
    [head :- head, body] with the head literal reading the over-deleted
    set, whose results seed the ordinary propagation).

    Both operations currently require a {e positive} program (no
    negation): under negation additions can retract derived facts and
    vice versa, which DRed alone does not handle.  The facade falls back
    to recomputation in that case. *)

open Datalog_ast
open Datalog_storage

val add_facts :
  Counters.t ->
  ?limits:Limits.t ->
  ?profile:Profile.t ->
  ?plan:Plan.config ->
  ?on_change:(Pred.t -> unit) ->
  Program.t ->
  Database.t ->
  Atom.t list ->
  (int, string) result
(** [add_facts cnt program db facts] inserts the (ground, extensional)
    [facts] into the saturated [db] and propagates their consequences.
    Returns the number of new tuples (base + derived), or [Error] on a
    program with negation.

    [plan] selects compiled maintenance (the interpreted [Eval] path
    otherwise, kept as the oracle).  Its [sip] and [merge] settings are
    overridden: maintenance plans always order the delta literal first
    ({!Plan.Cost}) and use hash probes only, never merge joins, because
    the relations they probe change on every call and a sorted view
    would be rebuilt each time.

    [limits] bounds the propagation.  Unlike the query engines, exhaustion
    here is an [Error], and the operation is {e transactional}: every
    tuple the call inserts or removes is recorded in an undo log before
    any budget check can raise, and on exhaustion the log is replayed in
    reverse, so [db] holds exactly its pre-call facts again (a
    half-propagated database no longer equals the recomputed one) and the
    caller can simply raise the budget and retry.  The undo costs
    O(change); [db]'s relations are the same objects before and after, so
    aliased references to them stay valid.

    [on_change] is called once per predicate whose relation the call
    actually changed (base or derived), after the operation committed —
    the invalidation hook for answer caches layered above the database.
    It is not called on [Error] (the rollback restored every
    relation). *)

val remove_facts :
  Counters.t ->
  ?limits:Limits.t ->
  ?profile:Profile.t ->
  ?plan:Plan.config ->
  ?on_change:(Pred.t -> unit) ->
  Program.t ->
  Database.t ->
  Atom.t list ->
  (int, string) result
(** [remove_facts cnt program db facts] deletes the given extensional
    facts and every derived tuple that no longer has a derivation.
    Returns the number of tuples removed, or [Error] on a program with
    negation.  [limits] and [on_change] as in {!add_facts} (exhaustion
    rolls [db] back to its pre-call state through the undo log and is
    reported as [Error]).

    Only [program]'s facts on rule-head predicates matter here: they are
    protected from over-deletion (unless listed in [facts]), since no
    rule may re-derive them.  Facts on other predicates are never
    over-deleted, so a caller may pass just the rules plus those facts. *)
