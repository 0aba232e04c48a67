(* Seeded inputs for the three workloads.  Everything is generated in
   process from the command-line seed: the same seed gives the same program
   text, the same query and the same request stream. *)

open Datalog_ast

(* The linear congruential generator of [Alexander.Workloads] (which does
   not export it), so the request stream and the node permutation draw
   from the same family of streams as the library's graph generator. *)
module Lcg = struct
  type t = { mutable state : int64 }

  let make seed = { state = Int64.of_int (seed land 0x3fffffff) }

  let next t =
    t.state <-
      Int64.add (Int64.mul t.state 6364136223846793005L) 1442695040888963407L;
    Int64.to_int (Int64.shift_right_logical t.state 33)

  let below t n = if n <= 0 then 0 else next t mod n

  (* uniform in [0, 1) *)
  let unit t = float_of_int (next t land 0x3fffffff) /. 1073741824.
end

(* anc(X, Y) :- anc(X, Z), edge(Z, Y): a bound first argument stays bound,
   so [anc(0, X)] is single-source reachability. *)
let right_linear =
  "anc(X, Y) :- edge(X, Y).\nanc(X, Y) :- anc(X, Z), edge(Z, Y).\n"

(* anc(X, Y) :- edge(X, Z), anc(Z, Y): the rule set of
   [Alexander.Workloads.ancestor_rules], the one the chain cells of the
   experiment tables use. *)
let edge_first =
  "anc(X, Y) :- edge(X, Y).\nanc(X, Y) :- edge(X, Z), anc(Z, Y).\n"

let program_text rules edges =
  let b = Buffer.create (Array.length edges * 22 + 128) in
  Buffer.add_string b rules;
  Array.iter
    (fun (x, y) -> Printf.bprintf b "edge(%d, %d).\n" x y)
    edges;
  Buffer.contents b

let int_of_term = function
  | Term.Const (Value.Int i) -> i
  | t -> invalid_arg (Format.asprintf "not an integer node: %a" Term.pp t)

(* [reach_random]: the library's seeded random digraph. *)
let random_edges ~nodes ~edges ~seed =
  Alexander.Workloads.random_graph ~pred:"edge" ~nodes ~edges ~seed
  |> List.rev_map (fun a ->
         let args = Atom.args a in
         (int_of_term args.(0), int_of_term args.(1)))
  |> Array.of_list

(* [closure_chain]: a chain of [n] edges whose [n + 1] node labels are a
   seeded permutation of [0..n]; the shape, and so the work, is the same
   for every seed. *)
let chain_labels ~n ~seed =
  let rng = Lcg.make seed in
  let perm = Array.init (n + 1) Fun.id in
  for i = n downto 1 do
    let j = Lcg.below rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  perm

let chain_edges labels =
  Array.init (Array.length labels - 1) (fun i -> (labels.(i), labels.(i + 1)))

(* [serve_mixed]: [chains] disjoint chains of [chain_len] edges; chain [c]
   runs through nodes [c * (chain_len + 1)] .. [c * (chain_len + 1) +
   chain_len], and its first node is the root the queries ask about. *)
let forest_edges ~chains ~chain_len =
  Array.init (chains * chain_len) (fun i ->
      let c = i / chain_len and k = i mod chain_len in
      let x = (c * (chain_len + 1)) + k in
      (x, x + 1))
