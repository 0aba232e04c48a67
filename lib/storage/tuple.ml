open Datalog_ast

type t = Code.t array

(* Top-level recursive helpers: a local [let rec go] capturing [a], [b]
   and [n] would allocate a closure on every call, and these run once per
   hash-table probe and per comparison of the answer sort. *)
let rec equal_from (a : t) (b : t) i n =
  i >= n
  || (Array.unsafe_get a i = Array.unsafe_get b i && equal_from a b (i + 1) n)

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b && equal_from a b 0 n

let rec compare_from (a : t) (b : t) i n =
  if i >= n then 0
  else
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    if x = y then compare_from a b (i + 1) n
    else if x land y land 1 = 1 then Int.compare x y
      (* both small ints: odd codes are monotone in the int *)
    else Code.compare_values x y

let compare (a : t) (b : t) =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else compare_from a b 0 (Array.length a)

(* A multiplicative mixing hash.  Codes of small ints are all odd and
   codes of symbols all even, so the additive [h * 31 + code] left the low
   bits (the ones a power-of-two table indexes by) nearly constant; the
   multiply spreads each code over the high bits and the xor-shift folds
   them back down. *)
let rec hash_from (t : t) h i n =
  if i >= n then h
  else
    let x = (h lxor Array.unsafe_get t i) * 0x1f3d5b79a3c4e5f7 in
    hash_from t (x lxor (x lsr 29)) (i + 1) n

let hash (t : t) = hash_from t 17 0 (Array.length t) land max_int

let encode values = Array.map Code.of_value values
let decode (t : t) = Array.map Code.to_value t
let of_atom a = encode (Atom.to_tuple a)
let to_atom pred t = Atom.of_tuple pred (decode t)

(* A compiled argument pattern: [consts] holds (column, code) pairs and
   [eqs] (column, earlier column) pairs for repeated variables, both
   flattened, so a test walks two int arrays and allocates nothing. *)
type pattern = { width : int; consts : int array; eqs : int array }

let pattern atom =
  let args = Atom.args atom in
  let consts = ref [] and eqs = ref [] and first = ref [] in
  Array.iteri
    (fun i arg ->
      match arg with
      | Term.Const v -> consts := (i, Code.of_value v) :: !consts
      | Term.Var x -> (
        match List.assoc_opt x !first with
        | Some j -> eqs := (i, j) :: !eqs
        | None -> first := (x, i) :: !first))
    args;
  let flatten pairs =
    Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) (List.rev pairs))
  in
  { width = Array.length args; consts = flatten !consts; eqs = flatten !eqs }

let bindings p =
  List.init (Array.length p.consts / 2) (fun k ->
      (p.consts.(2 * k), p.consts.((2 * k) + 1)))

let has_repeated_var p = Array.length p.eqs > 0

let rec consts_ok consts (t : t) k =
  k >= Array.length consts
  || t.(consts.(k)) = consts.(k + 1) && consts_ok consts t (k + 2)

let rec eqs_ok eqs (t : t) k =
  k >= Array.length eqs
  || t.(eqs.(k)) = t.(eqs.(k + 1)) && eqs_ok eqs t (k + 2)

let pattern_matches p (t : t) =
  Array.length t = p.width && consts_ok p.consts t 0 && eqs_ok p.eqs t 0

let matches atom =
  let p = pattern atom in
  fun t -> pattern_matches p t

let project cols (t : t) = Array.map (fun i -> t.(i)) cols

let pp ppf (t : t) =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Code.pp)
    t

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)
