(** Databases: a mutable map from predicates to relations. *)

open Datalog_ast

type t

val create : unit -> t

val of_facts : Atom.t list -> t
(** Seed a database from ground atoms. *)

val rel : t -> Pred.t -> Relation.t
(** The relation for a predicate, created empty on first access. *)

val find : t -> Pred.t -> Relation.t option
(** The relation if one exists (no creation). *)

val add_atom : t -> Atom.t -> bool
(** Insert a ground atom; returns [true] iff new. *)

val add : t -> Pred.t -> Tuple.t -> bool

val remove : t -> Pred.t -> Tuple.t -> bool
val remove_atom : t -> Atom.t -> bool
(** Delete a tuple / ground atom; [true] iff it was present. *)

val mem_atom : t -> Atom.t -> bool
val mem : t -> Pred.t -> Tuple.t -> bool

val preds : t -> Pred.t list
(** Predicates that currently have a (possibly empty) relation. *)

val cardinal : t -> Pred.t -> int
val total_facts : t -> int

val copy : t -> t

val union_into : src:t -> dst:t -> int
(** Insert every tuple of [src] into [dst]; returns how many were new. *)

val tuples : t -> Pred.t -> Tuple.t list

val iter : (Pred.t -> Relation.t -> unit) -> t -> unit

val pp : Format.formatter -> t -> unit
(** Prints every stored fact as [p(c1, ..., cn).], grouped by predicate. *)
