type t = { id : int; name : string }

(* The intern table is process-wide mutable state, and OCaml 5 domains
   may intern concurrently (fresh symbols from rewrites, late decoding
   of answers), so every access to the tables below holds [lock].  The
   structures are tiny and interning never happens inside the join hot
   loops — joins only move already-interned codes (plain ints) around
   — so one process-wide mutex costs nothing measurable.  Reads of an
   [{id; name}] record obtained from a previous [intern] need no lock:
   the record is immutable, and whoever handed the symbol (or its code)
   across domains created the necessary happens-before edge. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let table : (string, t) Hashtbl.t = Hashtbl.create 1024
let counter = ref 0

(* Reverse table: dense ids back to their symbols, for decoding coded
   tuples ({!Code}).  Grown geometrically alongside [counter]. *)
let by_id : t option array ref = ref (Array.make 1024 None)

let register s =
  let n = Array.length !by_id in
  if s.id >= n then begin
    let bigger = Array.make (max (n * 2) (s.id + 1)) None in
    Array.blit !by_id 0 bigger 0 n;
    by_id := bigger
  end;
  !by_id.(s.id) <- Some s

let intern_locked name =
  match Hashtbl.find_opt table name with
  | Some s -> s
  | None ->
    let s = { id = !counter; name } in
    incr counter;
    Hashtbl.add table name s;
    register s;
    s

let intern name = locked (fun () -> intern_locked name)

let name s = s.name
let id s = s.id

let of_id id =
  locked (fun () ->
      if id < 0 || id >= !counter then
        invalid_arg (Printf.sprintf "Symbol.of_id: unknown id %d" id)
      else
        match !by_id.(id) with
        | Some s -> s
        | None -> assert false)

let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash s = s.id

(* Next suffix to try per prefix, so generating many fresh names that
   share a prefix stays O(1) amortised instead of re-probing the table
   from [_0] every time. *)
let fresh_counters : (string, int ref) Hashtbl.t = Hashtbl.create 64

let fresh prefix =
  locked (fun () ->
      if not (Hashtbl.mem table prefix) then intern_locked prefix
      else begin
        let next =
          match Hashtbl.find_opt fresh_counters prefix with
          | Some r -> r
          | None ->
            let r = ref 0 in
            Hashtbl.add fresh_counters prefix r;
            r
        in
        let rec probe () =
          let candidate = Printf.sprintf "%s_%d" prefix !next in
          incr next;
          if Hashtbl.mem table candidate then probe ()
          else intern_locked candidate
        in
        probe ()
      end)

let pp ppf s = Format.pp_print_string ppf s.name
let interned_count () = locked (fun () -> !counter)
