(** Ground tuples: arrays of one-word codes, the rows stored in relations.

    A tuple is an [int array] of {!Datalog_ast.Code.t}; equality, hashing
    and index probes are word-wise integer operations with no value
    boxing.  {!encode}/{!decode} convert at the boundaries. *)

open Datalog_ast

type t = Code.t array

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic in the {e decoded} value order ({!Code.compare_values}),
    so sorted tuple listings are stable across processes. *)

val hash : t -> int
(** A multiplicative mixing hash, non-negative; [equal a b] implies
    [hash a = hash b].  Its low bits are well spread, so power-of-two
    tables may index by [hash t land mask]. *)

val encode : Value.t array -> t
val decode : t -> Value.t array

val of_atom : Atom.t -> t
(** @raise Invalid_argument if the atom is not ground. *)

val to_atom : Pred.t -> t -> Atom.t
(** Decode a stored tuple back to a ground atom (boundary only). *)

type pattern
(** The argument pattern of a (possibly non-ground) atom, compiled once:
    its constant columns and the pairs of columns a repeated variable
    forces equal.  Testing a tuple against it allocates nothing. *)

val pattern : Atom.t -> pattern
(** The predicate of the atom is not consulted. *)

val pattern_matches : pattern -> t -> bool
(** Constants must coincide and repeated variables must take equal
    values; the tuple's width must be the pattern's. *)

val bindings : pattern -> (int * Code.t) list
(** The constant columns with their codes, in ascending column order —
    the argument {!Relation.select} takes. *)

val has_repeated_var : pattern -> bool
(** Whether some variable occurs twice.  When it does not, every tuple of
    the right width that agrees with {!bindings} matches. *)

val matches : Atom.t -> t -> bool
(** [matches pattern] is [pattern_matches (pattern pattern)]: partially
    applied (e.g. to [List.filter]) it compiles the pattern once. *)

val project : int array -> t -> t
(** [project cols t] extracts the listed columns, in order. *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
