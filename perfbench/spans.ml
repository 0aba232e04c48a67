(* In-memory span recorder for the traced runs.

   A span is one call into a layer, timed from the benchmark's side of
   the call: a name, a start, an end, the span that was open when it
   began (its parent) and the request it belongs to.  Spans stay in
   memory until [write] at the end of the run, so recording costs two
   clock reads and a list cons per span.  Times are seconds on the
   monotonic clock of {!Measure.now}. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (** the last one to end first *)
  mutable next_id : int;
  mutable open_ : int list;  (** ids of the spans being recorded *)
  mutable current : int;  (** the request later spans belong to *)
}

let create () = { spans = []; next_id = 0; open_ = []; current = 0 }

(* Later spans belong to request [req]. *)
let set_request t req = t.current <- req

let record t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start = Measure.now () in
  let close () =
    let stop = Measure.now () in
    t.open_ <- List.tl t.open_;
    t.spans <- { id; name; parent; req = t.current; start; stop } :: t.spans
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let spans t = List.rev t.spans

(* Self time of every span: its duration minus the time its direct
   children cover (children of one span never overlap, since the
   recorder runs on one thread). *)
let self_times t =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (Option.value ~default:0. (Hashtbl.find_opt covered s.parent)
          +. (s.stop -. s.start)))
    t.spans;
  List.map
    (fun s ->
      ( s,
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt covered s.id) ))
    (spans t)

(* Per request, the summed self time of each span name; then, per name,
   the list of those per-request sums (requests without such a span are
   left out). *)
let self_by_name t =
  let per_req = Hashtbl.create 256 in
  List.iter
    (fun (s, self) ->
      let key = (s.req, s.name) in
      Hashtbl.replace per_req key
        (Option.value ~default:0. (Hashtbl.find_opt per_req key) +. self))
    (self_times t);
  let by_name = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (_, name) v ->
      Hashtbl.replace by_name name
        (v :: Option.value ~default:[] (Hashtbl.find_opt by_name name)))
    per_req;
  by_name

(* All spans, one JSON object a line, in the order they ended. *)
let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start\":%.9f,\
         \"end\":%.9f,\"self_s\":%.9f}\n"
        s.id s.name s.parent s.req s.start s.stop self)
    (self_times t)
