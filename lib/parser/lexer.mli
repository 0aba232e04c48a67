(** Lexer for the Datalog surface syntax.

    Comments run from [%] to end of line.  Identifiers starting with a
    lowercase letter are constants / predicate names; identifiers starting
    with an uppercase letter or [_] are variables; double-quoted strings are
    symbolic constants.  *)

type token =
  | IDENT of string  (** lowercase identifier *)
  | VAR of string  (** uppercase/underscore identifier *)
  | INT of int
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | IF  (** [:-] *)
  | QUERY  (** [?-] *)
  | NOT  (** [not] or [\+] *)
  | EQ | NEQ | LT | LEQ | GT | GEQ
  | EOF

type position = { line : int; col : int }

exception Error of string * position

type t

val of_string : string -> t
val next : t -> token * position
(** Consume and return the next token.
    @raise Error on an invalid character, an unterminated string, or an
    integer literal outside [[min_int, max_int]]. *)

val pp_token : Format.formatter -> token -> unit
