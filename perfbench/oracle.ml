(* Answer oracles that share no code with the engine: they work on the
   generated integer edges, never on parsed atoms or the database. *)

(* Successor lists of a digraph given as an edge array. *)
let adjacency edges =
  let succ = Hashtbl.create (Array.length edges) in
  Array.iter
    (fun (x, y) ->
      Hashtbl.replace succ x
        (y :: Option.value ~default:[] (Hashtbl.find_opt succ x)))
    edges;
  succ

(* Nodes reachable from [root] by a path of at least one edge, sorted —
   the answers of [anc(root, X)].  [root] itself is among them only when
   it lies on a cycle. *)
let reachable succ root =
  let seen = Hashtbl.create 1024 in
  let stack = ref (Option.value ~default:[] (Hashtbl.find_opt succ root)) in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | x :: rest ->
      stack := rest;
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        List.iter
          (fun y -> if not (Hashtbl.mem seen y) then stack := y :: !stack)
          (Option.value ~default:[] (Hashtbl.find_opt succ x))
      end
  done;
  Hashtbl.fold (fun x () acc -> x :: acc) seen [] |> List.sort compare

(* The closure of a chain in closed form: [anc(a, b)] holds exactly when
   [a] comes before [b] on the chain.  Returns [Ok ()] or the first
   discrepancy (a wrong pair, a repeated pair, or a wrong count). *)
let check_chain_closure labels pairs =
  let n = Array.length labels in
  let pos = Hashtbl.create n in
  Array.iteri (fun i x -> Hashtbl.replace pos x i) labels;
  let expected = n * (n - 1) / 2 in
  let count = List.length pairs in
  if count <> expected then
    Error (Printf.sprintf "%d answers, expected %d" count expected)
  else
    let rec go prev = function
      | [] -> Ok ()
      | ((a, b) as p) :: rest -> (
        match (Hashtbl.find_opt pos a, Hashtbl.find_opt pos b) with
        | Some i, Some j when i < j && Some p <> prev -> go (Some p) rest
        | _ -> Error (Printf.sprintf "unexpected answer anc(%d, %d)" a b))
    in
    go None (List.sort compare pairs)
