type t = { pred : Pred.t; args : Term.t array }

let make pred args =
  if Array.length args <> Pred.arity pred then
    invalid_arg
      (Format.asprintf "Atom.make: %a applied to %d arguments" Pred.pp pred
         (Array.length args));
  { pred; args }

let app name args =
  let args = Array.of_list args in
  make (Pred.make name (Array.length args)) args

let pred a = a.pred
let args a = a.args
let arity a = Array.length a.args

let vars a =
  Array.fold_right (fun t acc -> Term.vars t @ acc) a.args []

let var_set a =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    (vars a)

let is_ground a = Array.for_all Term.is_ground a.args

let to_tuple a =
  Array.map
    (function
      | Term.Const v -> v
      | Term.Var v ->
        invalid_arg (Printf.sprintf "Atom.to_tuple: free variable %s" v))
    a.args

let of_tuple pred tuple = make pred (Array.map Term.const tuple)

let equal a b =
  Pred.equal a.pred b.pred && Array.for_all2 Term.equal a.args b.args

let compare a b =
  let c = Pred.compare a.pred b.pred in
  if c <> 0 then c
  else
    let n = Array.length a.args in
    let rec go i =
      if i >= n then 0
      else
        let c = Term.compare a.args.(i) b.args.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let hash a =
  Array.fold_left
    (fun acc t ->
      let h =
        match t with
        | Term.Var v -> Hashtbl.hash v
        | Term.Const c -> Value.hash c
      in
      (acc * 31) + h)
    (Pred.hash a.pred) a.args

(* Direct calls rather than a ["%a(%a)"] format: answers are printed
   through here, once per atom. *)
let pp ppf a =
  Pred.pp_name ppf a.pred;
  let n = Array.length a.args in
  if n > 0 then begin
    Format.pp_print_char ppf '(';
    Term.pp ppf a.args.(0);
    for i = 1 to n - 1 do
      Format.pp_print_string ppf ", ";
      Term.pp ppf a.args.(i)
    done;
    Format.pp_print_char ppf ')'
  end

module Ord = struct
  type nonrec t = t
  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
