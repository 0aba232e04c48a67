open Datalog_storage

type reason = Timeout | Fact_limit | Iteration_limit | Tuple_limit | Cancelled

type status = Complete | Exhausted of reason

type t = {
  timeout_s : float option;
  max_facts : int option;
  max_iterations : int option;
  max_tuples : int option;
  cancelled : (unit -> bool) option;
}

exception Out_of_budget of reason

let none =
  { timeout_s = None;
    max_facts = None;
    max_iterations = None;
    max_tuples = None;
    cancelled = None
  }

let is_none l =
  l.timeout_s = None && l.max_facts = None && l.max_iterations = None
  && l.max_tuples = None
  && Option.is_none l.cancelled

let make ?timeout_s ?max_facts ?max_iterations ?max_tuples ?cancelled () =
  { timeout_s; max_facts; max_iterations; max_tuples; cancelled }

type guard = {
  active : bool;
  cnt : Counters.t;
  deadline : float;  (** [infinity] when no timeout *)
  max_facts : int;  (** [max_int] when uncapped, likewise below *)
  max_iterations : int;
  max_tuples : int;
  cancelled : unit -> bool;
  mutable tick : int;
      (** the one shared decimation counter: every hot-path check —
          per-candidate and per-derivation alike — bumps it, and the
          clock / cancel poll fires on its boundaries.  One plain int
          field, so an active guard allocates nothing per check. *)
}

let never_cancelled () = false

let no_guard =
  { active = false;
    cnt = Counters.create ();
    deadline = infinity;
    max_facts = max_int;
    max_iterations = max_int;
    max_tuples = max_int;
    cancelled = never_cancelled;
    tick = 0
  }

let guard limits cnt =
  if is_none limits then no_guard
  else
    { active = true;
      cnt;
      deadline =
        (match limits.timeout_s with
        | None -> infinity
        | Some s -> Unix.gettimeofday () +. s);
      max_facts = Option.value ~default:max_int limits.max_facts;
      max_iterations = Option.value ~default:max_int limits.max_iterations;
      max_tuples = Option.value ~default:max_int limits.max_tuples;
      cancelled = Option.value ~default:never_cancelled limits.cancelled;
      tick = 0
    }

let is_active g = g.active

let exhausted reason = raise (Out_of_budget reason)

(* The clock poll: gettimeofday is tens of nanoseconds, but paying it per
   scanned tuple would dominate small joins, so [check] samples it. *)
let slow_checks g =
  if Unix.gettimeofday () > g.deadline then exhausted Timeout;
  if g.cancelled () then exhausted Cancelled

let check g =
  if g.active then begin
    if g.cnt.Counters.facts_derived > g.max_facts then exhausted Fact_limit;
    g.tick <- g.tick + 1;
    if g.tick land 511 = 0 then slow_checks g
  end

(* Derivation-granular deadline poll.  The per-scan [check] samples the
   clock on scanned tuples, but a rule whose every candidate fires (a
   cross product, say) can derive — and pay [Database.add]'s index
   maintenance for — hundreds of thousands of facts inside one fixpoint
   round while the scan tick crawls; counting derivations directly keeps
   the worst-case overshoot past a deadline bounded by 64 emitted facts'
   worth of work rather than by the size of the round.  It shares the
   one [tick] counter with [check]: in derivation-only loops (no
   candidate scans between firings) the counter advances here alone and
   the poll fires every 64 derivations; in mixed loops the per-scan
   checks keep the counter moving and the 512-boundary poll bounds the
   overshoot regardless of how the two interleave. *)
let check_derived g =
  if g.active then begin
    if g.cnt.Counters.facts_derived > g.max_facts then exhausted Fact_limit;
    g.tick <- g.tick + 1;
    if g.tick land 63 = 0 then slow_checks g
  end

let check_round g =
  if g.active then begin
    if g.cnt.Counters.iterations > g.max_iterations then
      exhausted Iteration_limit;
    if g.cnt.Counters.facts_derived > g.max_facts then exhausted Fact_limit;
    slow_checks g
  end

let check_clock g = if g.active then slow_checks g

let check_relation g rel =
  if g.active && Relation.cardinal rel > g.max_tuples then
    exhausted Tuple_limit

let reason_name = function
  | Timeout -> "timeout"
  | Fact_limit -> "max-facts"
  | Iteration_limit -> "max-iterations"
  | Tuple_limit -> "max-tuples"
  | Cancelled -> "cancelled"

let pp_reason ppf r = Format.pp_print_string ppf (reason_name r)

let pp_status ppf = function
  | Complete -> Format.pp_print_string ppf "complete"
  | Exhausted r -> Format.fprintf ppf "exhausted (%a)" pp_reason r

let describe l =
  if is_none l then "unlimited"
  else
    let parts =
      List.filter_map
        (fun x -> x)
        [ Option.map (Printf.sprintf "timeout=%gs") l.timeout_s;
          Option.map (Printf.sprintf "max-facts=%d") l.max_facts;
          Option.map (Printf.sprintf "max-iterations=%d") l.max_iterations;
          Option.map (Printf.sprintf "max-tuples=%d") l.max_tuples;
          Option.map (fun _ -> "cancellable") l.cancelled
        ]
    in
    String.concat " " parts
