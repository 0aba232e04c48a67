(** Instrumentation counters shared by the evaluators.

    These are the machine-independent cost measures the benchmarks report:
    a {e firing} is one successful full match of a rule body, a {e probe} is
    one indexed lookup into a relation, {e scanned} counts the candidate
    tuples those probes returned, and {e iterations} counts fixpoint
    rounds.  A {e merge step} is one execution of a fused galloping
    merge-join operation (which replaces a scan plus one probe per
    candidate), and {e gallops} counts the exponential-search descents
    those merge steps performed.  {e subsumed} counts magic/problem facts
    dropped because a more general call was already present
    ({!Subsume}). *)

type t = {
  mutable facts_derived : int;  (** new tuples inserted by rules *)
  mutable firings : int;  (** rule bodies satisfied (incl. duplicates) *)
  mutable probes : int;  (** relation lookups *)
  mutable scanned : int;  (** candidate tuples inspected *)
  mutable iterations : int;  (** fixpoint rounds *)
  mutable merge_steps : int;  (** fused merge-join executions *)
  mutable gallops : int;  (** exponential searches inside merge joins *)
  mutable subsumed : int;
      (** magic/problem facts dropped by the adornment-lattice
          subsumption filter (distinct tuples, like [facts_derived]) *)
}

val create : unit -> t
(** A fresh all-zero counter set, the identity of {!add}. *)

val reset : t -> unit

val add : t -> t -> unit
(** [add acc c] accumulates [c] into [acc] field-wise.  Associative and
    commutative in [c] (ints under addition), so per-request counters
    may be folded into a running total in any order. *)

val to_json : t -> Json.t
(** One object with the eight counter fields, in declaration order. *)

val pp : Format.formatter -> t -> unit
