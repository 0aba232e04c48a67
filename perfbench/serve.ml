(* [serve_mixed]: the service core driven in process by one closed-loop
   client.  Each request is a protocol line that goes through
   [Protocol.parse] -> [Supervisor.submit] -> [Supervisor.process_one] ->
   [Protocol.render]; its latency is the time those four calls take.  The
   client keeps its own model of the edge set and checks every reply
   against it: query answers by a breadth-first search, mutation acks by
   the number of facts the change must add or remove. *)

open Datalog_ast
open Datalog_storage
open Datalog_engine
module Sup = Datalog_server.Supervisor
module Protocol = Datalog_server.Protocol
module M = Measure

let chains = 3000
let chain_len = 5
let warmup = 200

(* The timed loop runs for the given seconds, and for at least this many
   requests; the heap peak is read when this many are done, so a faster
   service that fits more requests into the run is not charged for the
   extra ones. *)
let min_timed = 2000

(* ------------------------------------------------------------------ *)
(* The client: request stream and reply oracle *)

type client = {
  rng : Gen.Lcg.t;
  succ : (int, int list) Hashtbl.t;
  pred : (int, int list) Hashtbl.t;
  mutable added : (int * int) list;  (** edges added and not yet removed *)
  mutable n_added : int;
  mutable fresh : int;  (** the next unused node *)
  block : [ `Query | `Add | `Remove ] array;
      (** the request classes of the current block *)
  mutable pos : int;  (** the next request's place in [block] *)
}

let make_client seed =
  let edges = Gen.forest_edges ~chains ~chain_len in
  let flip = Array.map (fun (x, y) -> (y, x)) edges in
  { rng = Gen.Lcg.make seed;
    succ = Oracle.adjacency edges;
    pred = Oracle.adjacency flip;
    added = [];
    n_added = 0;
    fresh = chains * (chain_len + 1);
    block =
      Array.init 100 (fun i ->
          if i < 90 then `Query else if i < 97 then `Add else `Remove);
    pos = 100
  }

let link tbl x y =
  Hashtbl.replace tbl x (y :: Option.value ~default:[] (Hashtbl.find_opt tbl x))

let unlink tbl x y =
  Hashtbl.replace tbl x
    (List.filter (( <> ) y) (Option.value ~default:[] (Hashtbl.find_opt tbl x)))

type op =
  | Query of int  (** anc(root, X) *)
  | Add of int * int
  | Remove of int * int

(* Requests come in blocks of 100, each a seeded shuffle of 90 queries,
   7 adds and 3 removes, so every run has the same mix.  Queries ask
   about chain roots, Zipf-skewed: the chain is [chains^u - 1] for uniform
   [u], so chain [k] is asked with probability about
   [1 / ((k + 1) ln chains)] and the 128 most asked roots get about 61% of
   the queries, while the other roots exceed the answer cache.  An add
   links a chain node to a fresh leaf; a remove takes back an earlier add
   (it is an add when none is left). *)
let next_op c =
  if c.pos = Array.length c.block then begin
    for i = Array.length c.block - 1 downto 1 do
      let j = Gen.Lcg.below c.rng (i + 1) in
      let t = c.block.(i) in
      c.block.(i) <- c.block.(j);
      c.block.(j) <- t
    done;
    c.pos <- 0
  end;
  let kind = c.block.(c.pos) in
  c.pos <- c.pos + 1;
  if kind = `Query then
    let u = Gen.Lcg.unit c.rng in
    let chain = int_of_float (float_of_int chains ** u) - 1 in
    Query (chain * (chain_len + 1))
  else if kind = `Add || c.added = [] then begin
    let chain = Gen.Lcg.below c.rng chains in
    let x = (chain * (chain_len + 1)) + Gen.Lcg.below c.rng (chain_len + 1) in
    let y = c.fresh in
    c.fresh <- y + 1;
    Add (x, y)
  end
  else
    let i = Gen.Lcg.below c.rng c.n_added in
    let x, y = List.nth c.added i in
    Remove (x, y)

let request_line id = function
  | Query root ->
    Printf.sprintf "{\"op\":\"query\",\"goal\":\"anc(%d, X)\",\"id\":%d}" root id
  | Add (x, y) ->
    Printf.sprintf "{\"op\":\"add\",\"facts\":[\"edge(%d, %d)\"],\"id\":%d}" x y
      id
  | Remove (x, y) ->
    Printf.sprintf "{\"op\":\"remove\",\"facts\":[\"edge(%d, %d)\"],\"id\":%d}"
      x y id

(* Facts an add or remove of edge [x -> y] (y a leaf) must change: the
   edge, and anc(a, y) for [x] and every node that reaches [x]. *)
let mutation_count c x = List.length (Oracle.reachable c.pred x) + 2

(* Update the model after a mutation was acknowledged. *)
let apply c = function
  | Query _ -> ()
  | Add (x, y) ->
    link c.succ x y;
    link c.pred y x;
    c.added <- (x, y) :: c.added;
    c.n_added <- c.n_added + 1
  | Remove (x, y) ->
    unlink c.succ x y;
    unlink c.pred y x;
    c.added <- List.filter (( <> ) (x, y)) c.added;
    c.n_added <- c.n_added - 1

let answer_target root text =
  match Scanf.sscanf text "anc(%d, %d)%!" (fun a b -> (a, b)) with
  | a, b when a = root -> Some b
  | _ -> None
  | exception _ -> None

(* [Ok ()] when the reply is what the model predicts. *)
let check c op reply =
  let module J = Json in
  match J.of_string reply with
  | exception J.Parse_error msg -> Error ("unparsable reply: " ^ msg)
  | json -> (
    match J.member "status" json with
    | Some (J.String "ok") -> (
      match op with
      | Query root -> (
        match J.member "answers" json with
        | Some (J.List items) ->
          let got =
            List.map
              (function
                | J.String s -> answer_target root s | _ -> None)
              items
          in
          if List.mem None got then Error "malformed answer in reply"
          else
            let got = List.sort compare (List.filter_map Fun.id got) in
            if got = Oracle.reachable c.succ root then Ok ()
            else Error (Printf.sprintf "wrong answers for anc(%d, X)" root)
        | _ -> Error "query reply without answers")
      | Add (x, _) | Remove (x, _) -> (
        let expected = mutation_count c x in
        match J.member "count" json with
        | Some (J.Int n) when n = expected -> Ok ()
        | Some (J.Int n) ->
          Error (Printf.sprintf "mutation changed %d facts, expected %d" n expected)
        | _ -> Error "ack without a count"))
    | Some (J.String s) -> Error ("reply status " ^ s)
    | _ -> Error "reply without a status")

(* ------------------------------------------------------------------ *)
(* The service side *)

let program_text () =
  Gen.program_text Gen.right_linear (Gen.forest_edges ~chains ~chain_len)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A fresh directory under [work_dir] for one service instance's snapshot
   and write-ahead log. *)
let fresh_dir =
  let n = ref 0 in
  fun work_dir ->
    incr n;
    let dir =
      Filename.concat work_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !n)
    in
    remove_tree dir;
    Unix.mkdir dir 0o700;
    dir

(* Durable acks on the write-ahead log, fsync on every append. *)
let config dir =
  { Sup.default_config with
    Sup.snapshot_path = Some (Filename.concat dir "db.snapshot");
    durable_acks = true;
    wal_fsync = Wal.Always
  }

(* Set up [reps] service instances, each from the program text to ready to
   answer in a fresh directory; the set-up times and the last instance. *)
let setups ~work_dir ~reps text =
  let rec go acc k =
    Gc.full_major ();
    let dir = fresh_dir work_dir in
    let sup, dt =
      M.time (fun () ->
          match Sup.create (config dir) (Batch.parse_exn text) with
          | Ok sup -> sup
          | Error msg -> failwith ("service does not start: " ^ msg))
    in
    if k = 1 then (sup, dir, dt :: acc)
    else begin
      remove_tree dir;
      go (dt :: acc) (k - 1)
    end
  in
  go [] reps

(* One request through the four service calls; the reply line, or the
   reason there is none.  With [spans], each call is recorded as a span. *)
let serve ?spans sup line ~mutation =
  let wrap name f =
    match spans with None -> f () | Some sp -> Spans.record sp name f
  in
  match wrap "server.protocol_parse" (fun () -> Protocol.parse line) with
  | Error e -> Error ("request rejected: " ^ e.Protocol.err_message)
  | Ok env -> (
    (* the service's deadlines are on the wall clock *)
    let now = Unix.gettimeofday () in
    match wrap "server.submit" (fun () -> Sup.submit sup ~session:1 ~now env) with
    | Sup.Overloaded _ | Sup.Session_capped -> Error "request not admitted"
    | Sup.Admitted -> (
      let name =
        if mutation then "server.process_one.mutation"
        else "server.process_one.query"
      in
      let process () = Sup.process_one sup ~now:(Unix.gettimeofday ()) in
      match wrap name process with
      | None -> Error "admitted request was not processed"
      | Some (_, reply, _) ->
        Ok (wrap "server.render" (fun () -> Protocol.render reply))))

type sample = { op : op; latency : float; traced : bool }

(* Run the closed loop: [warmup] requests, then requests for [seconds]
   (and at least [min_timed] of them).  Every reply is checked.  Returns
   the latencies of the timed part and the heap peak after [min_timed]
   timed requests. *)
let drive ?spans sup client ~seconds ~attempted ~failed =
  let samples = ref [] in
  let id = ref 0 in
  let one ~timed =
    incr id;
    incr attempted;
    let op = next_op client in
    let line = request_line !id op in
    let mutation = match op with Query _ -> false | _ -> true in
    (* in the traced run every other timed request is traced *)
    let tracer =
      match spans with
      | Some sp when timed && !id land 1 = 0 -> Some sp
      | _ -> None
    in
    let t0 = M.now () in
    let reply =
      match tracer with
      | None -> serve sup line ~mutation
      | Some sp ->
        Spans.set_request sp !id;
        Spans.record sp "request" (fun () ->
            serve ~spans:sp sup line ~mutation)
    in
    let dt = M.now () -. t0 in
    match Result.bind reply (check client op) with
    | Ok () ->
      apply client op;
      if timed then
        samples := { op; latency = dt; traced = tracer <> None } :: !samples
    | Error msg ->
      incr failed;
      Printf.printf "request %d failed: %s\n%!" !id msg
  in
  for _ = 1 to warmup do
    one ~timed:false
  done;
  let start = M.now () and timed = ref 0 and peak = ref 0. in
  while !timed < min_timed || M.now () -. start < seconds do
    one ~timed:true;
    incr timed;
    if !timed = min_timed then peak := M.peak_heap_mb ()
  done;
  (List.rev !samples, !peak)

let latencies ?traced samples pick =
  List.filter_map
    (fun s ->
      if pick s.op && (traced = None || traced = Some s.traced) then
        Some s.latency
      else None)
    samples

let is_query = function Query _ -> true | _ -> false
let is_mutation op = not (is_query op)

(* ------------------------------------------------------------------ *)
(* The timed run *)

let timed ~seed ~seconds ~work_dir =
  let text = program_text () in
  let sup, dir, setup_times = setups ~work_dir ~reps:5 text in
  let saturated = Database.total_facts (Sup.db sup) in
  let attempted = ref 0 and failed = ref 0 in
  let g0 = M.gc () in
  let samples, peak =
    Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
    drive sup (make_client seed) ~seconds ~attempted ~failed
  in
  let g = M.gc_diff g0 (M.gc ()) in
  let q = latencies samples is_query and m = latencies samples is_mutation in
  let n = List.length samples in
  let busy = List.fold_left (fun acc s -> acc +. s.latency) 0. samples in
  let setup_s = M.median setup_times in
  let query_s = M.median q and ops = float_of_int n /. busy in
  let per_request x = float_of_int x /. float_of_int (n + warmup) in
  M.print_lines "end-to-end"
    [ M.metric "setup_s" "s" setup_s;
      M.metric "setup_samples" "count" (float_of_int (List.length setup_times));
      M.metric "saturated_facts" "count" (float_of_int saturated);
      M.metric "query_p50_ms" "ms" (1e3 *. query_s);
      M.metric "query_p99_ms" "ms" (1e3 *. M.quantile 0.99 q);
      M.metric "query_samples" "count" (float_of_int (List.length q));
      M.metric "mutation_p50_ms" "ms" (1e3 *. M.median m);
      M.metric "mutation_p90_ms" "ms" (1e3 *. M.quantile 0.9 m);
      M.metric "mutation_samples" "count" (float_of_int (List.length m));
      M.metric "ops_per_s" "1/s" ops;
      M.metric "peak_heap_mb" "MB" peak;
      M.metric "failed_share" "ratio"
        (float_of_int !failed /. float_of_int !attempted);
      M.metric "gc.minor_collections_per_request" "count"
        (per_request g.M.minor_gcs);
      M.metric "gc.major_collections_per_request" "count"
        (per_request g.M.major_gcs)
    ];
  ( !attempted,
    !failed,
    [ M.metric "setup_s" "s" setup_s;
      M.metric "query_s" "s" query_s;
      M.metric "peak_heap_mb" "MB" peak;
      M.metric "ops_per_s" "1/s" ops
    ] )

(* ------------------------------------------------------------------ *)
(* The traced run *)

let int_field fields path =
  let rec go json = function
    | [] -> ( match json with Json.Int n -> n | _ -> 0)
    | k :: rest -> (
      match Json.member k json with Some j -> go j rest | None -> 0)
  in
  go (Json.Obj fields) path

(* Median of [reps] timings of [f]. *)
let median_time reps f =
  M.median (List.init reps (fun _ -> snd (M.time f)))

let traced ~seed ~seconds ~work_dir ~spans_path =
  let text = program_text () in
  let parse_s = median_time 5 (fun () -> Batch.parse_exn text) in
  let program = Batch.parse_exn text in
  let facts = Program.facts program in
  let rules = Program.make (Program.rules program) in
  let analysis_s =
    median_time 5 (fun () -> Datalog_analysis.Safety.check_program program)
  in
  let load_s = median_time 5 (fun () -> Database.of_facts facts) in
  (* the saturation [Supervisor.create] performs, run on its own *)
  let eval () =
    let db = Database.of_facts facts in
    let g0 = M.gc () in
    let o, dt = M.time (fun () -> Stratified.run ~db rules) in
    match o with
    | Ok o -> (o, dt, (M.gc_diff g0 (M.gc ())).M.minor_words)
    | Error msg -> failwith msg
  in
  let evals = List.init 5 (fun _ -> Gc.full_major (); eval ()) in
  let outcome, _, words = List.hd evals in
  let eval_s = M.median (List.map (fun (_, dt, _) -> dt) evals) in
  let c = outcome.Stratified.counters in
  let sup, dir, _ = setups ~work_dir ~reps:1 text in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let saturated = Sup.db sup in
  let copy_ms = 1e3 *. median_time 10 (fun () -> Database.copy saturated) in
  (* [Incremental] on a copy of the saturated database under the
     service's default 5 s budget, as a mutation runs it *)
  let limits = Limits.make ~timeout_s:5.0 () in
  let working = Database.copy saturated in
  let adds = ref [] and removes = ref [] in
  let first = chains * (chain_len + 1) * 2 in
  let time_ok f =
    match M.time f with
    | Ok _, dt -> dt
    | Error msg, _ -> failwith msg
  in
  for i = 0 to 19 do
    let x = (i * (chain_len + 1)) + (i mod (chain_len + 1)) in
    let fact = Atom.app "edge" [ Term.int x; Term.int (first + i) ] in
    let base = Program.make ~facts:(fact :: facts) (Program.rules program) in
    let cnt = Counters.create () in
    adds :=
      time_ok (fun () ->
          Incremental.add_facts cnt ~limits rules working [ fact ])
      :: !adds;
    removes :=
      time_ok (fun () ->
          Incremental.remove_facts cnt ~limits base working [ fact ])
      :: !removes
  done;
  let sp = Spans.create () in
  let attempted = ref 0 and failed = ref 0 in
  let before = Sup.stats_fields sup in
  let g0 = M.gc () in
  let samples, _ =
    drive ~spans:sp sup (make_client seed) ~seconds ~attempted ~failed
  in
  let g = M.gc_diff g0 (M.gc ()) in
  let after = Sup.stats_fields sup in
  let delta path = int_field after path - int_field before path in
  Spans.write sp spans_path;
  let by_name = Spans.self_by_name sp in
  let self_median name =
    match Hashtbl.find_opt by_name name with Some xs -> M.median xs | None -> 0.
  in
  let mutations = delta [ "mutations" ] in
  let hits = delta [ "cache"; "hits" ] + delta [ "cache"; "subsumed_hits" ] in
  let lookups = hits + delta [ "cache"; "misses" ] in
  let n = List.length samples in
  let per_request x = float_of_int x /. float_of_int (n + warmup) in
  let q_traced = latencies ~traced:true samples is_query in
  let q_plain = latencies ~traced:false samples is_query in
  let fd = float_of_int c.Counters.facts_derived in
  let universal =
    [ M.metric "parser.parse_s" "s" parse_s;
      M.metric "parser.mb_per_s" "MB/s"
        (float_of_int (String.length text) /. 1e6 /. parse_s);
      M.metric "analysis.s" "s" analysis_s;
      M.metric "storage.load_s" "s" load_s;
      M.metric "storage.load_facts_per_s" "1/s"
        (float_of_int (List.length facts) /. load_s);
      M.metric "storage.copy_ms" "ms" copy_ms;
      M.metric "engine.eval_s" "s" eval_s;
      M.metric "engine.facts_derived" "count" fd;
      M.metric "engine.firings" "count" (float_of_int c.Counters.firings);
      M.metric "engine.probes" "count" (float_of_int c.Counters.probes);
      M.metric "engine.scanned" "count" (float_of_int c.Counters.scanned);
      M.metric "engine.merge_steps" "count" (float_of_int c.Counters.merge_steps);
      M.metric "engine.derived_facts_per_s" "1/s" (fd /. eval_s);
      M.metric "engine.minor_words_per_fact" "words" (words /. fd);
      M.metric "gc.minor_collections" "count" (per_request g.M.minor_gcs);
      M.metric "gc.major_collections" "count" (per_request g.M.major_gcs);
      M.metric "trace.overhead_ms" "ms"
        (1e3 *. (M.median q_traced -. M.median q_plain))
    ]
  in
  M.print_lines "per layer (medians; service calls over traced requests)"
    (universal
    @ [ M.metric "storage.wal_appends" "count"
          (float_of_int (delta [ "wal"; "appends" ]));
        M.metric "storage.wal_bytes_per_mutation" "bytes"
          (float_of_int (delta [ "wal"; "bytes" ])
          /. float_of_int (max 1 mutations));
        M.metric "engine.incremental_add_ms" "ms" (1e3 *. M.median !adds);
        M.metric "engine.incremental_remove_ms" "ms" (1e3 *. M.median !removes);
        M.metric "server.protocol_parse_us" "us"
          (1e6 *. self_median "server.protocol_parse");
        M.metric "server.submit_us" "us" (1e6 *. self_median "server.submit");
        M.metric "server.render_us" "us" (1e6 *. self_median "server.render");
        M.metric "server.handle_query_ms" "ms"
          (1e3 *. self_median "server.process_one.query");
        M.metric "server.handle_mutation_ms" "ms"
          (1e3 *. self_median "server.process_one.mutation");
        M.metric "server.cache_hit_ratio" "ratio"
          (float_of_int hits /. float_of_int (max 1 lookups));
        M.metric "server.cache_lookups" "count" (float_of_int lookups);
        M.metric "server.cache_invalidations_per_mutation" "count"
          (float_of_int (delta [ "cache"; "invalidations" ])
          /. float_of_int (max 1 mutations));
        M.metric "server.mutations" "count" (float_of_int mutations);
        M.metric "query.untraced_p50_ms" "ms" (1e3 *. M.median q_plain);
        M.metric "query.traced_p50_ms" "ms" (1e3 *. M.median q_traced);
        M.metric "samples" "count" (float_of_int n)
      ]);
  (!attempted, !failed, universal)
