(* The batch workloads: one program text, one query, answered from scratch
   again and again.

   The timed run measures what a caller of the library sees: set-up is
   [Parser.parse_string] of the program text, a query is [Solve.run] +
   [Solve.answer_atoms] + printing the answers to a buffer.  The traced
   run alternates that untraced query with a traced one that calls the
   same layers in the order [Solve.run] does, each inside a span, and
   fails unless both give the same answers and engine counters. *)

open Datalog_ast
open Datalog_storage
open Datalog_engine
open Datalog_rewrite
module S = Alexander.Solve
module O = Alexander.Options
module M = Measure

type spec = {
  text : string;
  query : Atom.t;
  options : O.t;
  check : (int * int) list -> (unit, string) result;
      (** the oracle, over the decoded answers as integer pairs *)
}

let anc_query text = Datalog_parser.Parser.atom_of_string text

(* The query root is node 0, unless node 0 reaches less than half of the
   graph (it has no out-edge for about one seed in twenty); then it is the
   next node that does, so every seed asks a question of the same size. *)
let reach_random ~seed =
  let nodes = 100_000 in
  let edges = Gen.random_edges ~nodes ~edges:300_000 ~seed in
  let succ = Oracle.adjacency edges in
  let rec pick root =
    let reach = Oracle.reachable succ root in
    if 2 * List.length reach >= nodes then (root, reach) else pick (root + 1)
  in
  let root, expected = pick 0 in
  { text = Gen.program_text Gen.right_linear edges;
    query = anc_query (Printf.sprintf "anc(%d, X)" root);
    options = O.default;
    check =
      (fun pairs ->
        let got = List.sort compare (List.map snd pairs) in
        if List.exists (fun (x, _) -> x <> root) pairs then
          Error (Printf.sprintf "an answer does not start at node %d" root)
        else if got = expected then Ok ()
        else
          Error
            (Printf.sprintf "%d answers, a graph search finds %d"
               (List.length got) (List.length expected)))
  }

let closure_chain ~seed =
  let labels = Gen.chain_labels ~n:1000 ~seed in
  { text = Gen.program_text Gen.edge_first (Gen.chain_edges labels);
    query = anc_query "anc(X, Y)";
    options = { O.default with O.strategy = O.Seminaive };
    check = Oracle.check_chain_closure labels
  }

let pair_of_atom a =
  let args = Atom.args a in
  (Gen.int_of_term args.(0), Gen.int_of_term args.(1))

(* The answers as the CLI prints them, one fact a line. *)
let render atoms =
  let b = Buffer.create (List.length atoms * 16) in
  let ppf = Format.formatter_of_buffer b in
  List.iter (fun a -> Format.fprintf ppf "%a.@\n" Atom.pp a) atoms;
  Format.pp_print_flush ppf ();
  b

let parse_exn text =
  match Datalog_parser.Parser.parse_string text with
  | Ok parsed -> parsed.Datalog_parser.Parser.program
  | Error msg -> failwith ("program text does not parse: " ^ msg)

(* Parse the program text at least 5 times and for at least 1 s (at most
   5000 times); the parse times and the last program. *)
let timed_parses text =
  let rec go acc n spent =
    let program, dt = M.time (fun () -> parse_exn text) in
    let acc = dt :: acc and spent = spent +. dt in
    if (n + 1 >= 5 && spent >= 1.0) || n + 1 >= 5000 then
      (program, acc)
    else go acc (n + 1) spent
  in
  go [] 0 0.

(* One untraced query, as a library caller runs it. *)
let untraced spec program =
  match S.run ~options:spec.options program spec.query with
  | Error e -> Error (Alexander.Errors.message e)
  | Ok report ->
    let solved = M.now () in
    let atoms = S.answer_atoms program spec.query report in
    ignore (render atoms);
    Ok (report, atoms, solved)

let check_atoms spec atoms = spec.check (List.map pair_of_atom atoms)

(* ------------------------------------------------------------------ *)
(* The timed run *)

(* The timed loop runs for the given seconds, and for at least this many
   queries; the heap peak is read when this many are done.  The peak
   settles after a few queries (the heap keeps growing while it
   fragments), and a faster engine that fits more queries into the run is
   not charged for the extra ones. *)
let min_queries = 5

let timed ~spec ~seconds =
  let program, setup_times = timed_parses spec.text in
  let times = ref [] and minors = ref [] and majors = ref [] in
  let attempted = ref 0 and failed = ref 0 and answers = ref 0 in
  let peak = ref 0. in
  let start = M.now () in
  while !attempted < min_queries || M.now () -. start < seconds do
    Gc.full_major ();
    incr attempted;
    let g0 = M.gc () in
    let t0 = M.now () in
    let result = untraced spec program in
    let dt = M.now () -. t0 in
    let g = M.gc_diff g0 (M.gc ()) in
    if !attempted = min_queries then peak := M.peak_heap_mb ();
    match result with
    | Error msg ->
      incr failed;
      Printf.printf "query failed: %s\n%!" msg
    | Ok (_, atoms, _) -> (
      times := dt :: !times;
      minors := float_of_int g.M.minor_gcs :: !minors;
      majors := float_of_int g.M.major_gcs :: !majors;
      answers := List.length atoms;
      match check_atoms spec atoms with
      | Ok () -> ()
      | Error msg ->
        incr failed;
        Printf.printf "wrong answers: %s\n%!" msg)
  done;
  let n = List.length !times in
  let total = List.fold_left ( +. ) 0. !times in
  let setup_s = M.median setup_times and peak = !peak in
  let query_s = if n = 0 then nan else M.median !times in
  let ops = float_of_int n /. total in
  let failed_share = float_of_int !failed /. float_of_int !attempted in
  M.print_lines "end-to-end"
    [ M.metric "setup_s" "s" setup_s;
      M.metric "setup_samples" "count" (float_of_int (List.length setup_times));
      M.metric "query_s" "s" query_s;
      M.metric "query_samples" "count" (float_of_int n);
      M.metric "query_q1_s" "s" (M.quantile 0.25 !times);
      M.metric "query_q3_s" "s" (M.quantile 0.75 !times);
      M.metric "ops_per_s" "1/s" ops;
      M.metric "peak_heap_mb" "MB" peak;
      M.metric "failed_share" "ratio" failed_share;
      M.metric "answers" "count" (float_of_int !answers);
      M.metric "program_text_mb" "MB"
        (float_of_int (String.length spec.text) /. 1e6);
      M.metric "gc.minor_collections_per_query" "count" (M.median !minors);
      M.metric "gc.major_collections_per_query" "count" (M.median !majors)
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

(* [Solve]'s private helpers, re-stated from the public API. *)
let plan_config options =
  if not options.O.compile then None
  else
    let sip =
      match options.O.sips with
      | Sips.Left_to_right -> Plan.Ltr
      | Sips.Greedy_bound | Sips.Cost_aware -> Plan.Cost
    in
    Some (Plan.config ~sip ~merge:options.O.merge ())

let subsume_of options rw =
  if not options.O.subsume then Subsume.none
  else
    Subsume.make
      (List.map
         (fun s ->
           (s.Rewritten.specific, s.Rewritten.generals, s.Rewritten.companion))
         rw.Rewritten.subsumption)

let matching_tuples db pred pattern =
  match Database.find db pred with
  | None -> []
  | Some rel ->
    let bindings = ref [] in
    Array.iteri
      (fun i t ->
        match t with
        | Term.Const v -> bindings := (i, Code.of_value v) :: !bindings
        | Term.Var _ -> ())
      (Atom.args pattern);
    Relation.select rel !bindings
    |> List.filter (Tuple.matches pattern)
    |> List.sort Tuple.compare

type traced_result = {
  t_answers : Tuple.t list;
  t_counters : Counters.t;
  t_eval_minor_words : float;
  t_rules : int;  (** rules of the program the engine ran *)
  t_edb : int;  (** facts loaded into the database *)
  t_db : Database.t;
}

(* The layers of [Solve.run] for a positive program under [Seminaive] or
   [Alexander], one span each.  The EDB is loaded with
   [Database.of_facts] and handed to the engine, which then runs the
   rules alone — the same work [Stratified.run] does when it loads the
   facts itself. *)
let traced_query sp spec program =
  let options = spec.options and query = spec.query in
  Spans.record sp "query" @@ fun () ->
  (match
     Spans.record sp "analysis" (fun () ->
         Datalog_analysis.Safety.check_program program)
   with
  | Ok () -> ()
  | Error msgs -> failwith (String.concat "; " msgs));
  let full, answer_pred, pattern, subsume =
    match options.O.strategy with
    | O.Seminaive -> (program, Atom.pred query, query, Subsume.none)
    | O.Alexander ->
      Spans.record sp "rewrite" (fun () ->
          let program = Alexander.Preprocess.split_idb_facts program in
          let adorned = Adorn.adorn ~strategy:options.O.sips program query in
          let rw = Alexander_templates.transform adorned in
          ( Program.make
              ~facts:(Program.facts program @ rw.Rewritten.seeds)
              rw.Rewritten.rules,
            Rewritten.answer_pred rw,
            rw.Rewritten.answer_atom,
            subsume_of options rw ))
    | _ -> invalid_arg "traced_query: strategy not traced"
  in
  let facts = Program.facts full in
  let db = Spans.record sp "storage.load" (fun () -> Database.of_facts facts) in
  let g0 = M.gc () in
  let outcome =
    Spans.record sp "engine.eval" (fun () ->
        Stratified.run ?plan:(plan_config options) ~subsume ~db
          (Program.make (Program.rules full)))
  in
  let g = M.gc_diff g0 (M.gc ()) in
  let outcome =
    match outcome with Ok o -> o | Error msg -> failwith msg
  in
  let answers =
    Spans.record sp "core.answers" (fun () ->
        matching_tuples outcome.Stratified.db answer_pred pattern)
  in
  Spans.record sp "core.decode" (fun () ->
      ignore (render (List.map (Tuple.to_atom (Atom.pred query)) answers)));
  { t_answers = answers;
    t_counters = outcome.Stratified.counters;
    t_eval_minor_words = g.M.minor_words;
    t_rules = Program.num_rules full;
    t_edb = List.length facts;
    t_db = outcome.Stratified.db
  }

let counters_equal (a : Counters.t) (b : Counters.t) =
  a.facts_derived = b.facts_derived && a.firings = b.firings
  && a.probes = b.probes && a.scanned = b.scanned
  && a.iterations = b.iterations && a.merge_steps = b.merge_steps
  && a.gallops = b.gallops && a.subsumed = b.subsumed

let self_median by_name name =
  match Hashtbl.find_opt by_name name with
  | Some xs -> M.median xs
  | None -> 0.

let traced ~spec ~seconds ~spans_path =
  let program, parse_times = timed_parses spec.text in
  let sp = Spans.create () in
  let solve_s = ref [] and decode_s = ref [] and untraced_s = ref [] in
  let traced_s = ref [] and words = ref [] in
  let minors = ref [] and majors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let last = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failed;
        Printf.printf "%s\n%!" msg)
      fmt
  in
  let start = M.now () in
  let req = ref 0 in
  while !attempted = 0 || M.now () -. start < seconds do
    incr attempted;
    (* the untraced query, then the traced one on the same input *)
    Gc.full_major ();
    let g0 = M.gc () in
    let t0 = M.now () in
    let plain = untraced spec program in
    let t1 = M.now () in
    let g = M.gc_diff g0 (M.gc ()) in
    Gc.full_major ();
    incr req;
    Spans.set_request sp !req;
    let traced = traced_query sp spec program in
    (match plain with
    | Error msg -> fail "query failed: %s" msg
    | Ok (report, atoms, solved) ->
      untraced_s := (t1 -. t0) :: !untraced_s;
      solve_s := (solved -. t0) :: !solve_s;
      decode_s := (t1 -. solved) :: !decode_s;
      minors := float_of_int g.M.minor_gcs :: !minors;
      majors := float_of_int g.M.major_gcs :: !majors;
      (match check_atoms spec atoms with
      | Ok () -> ()
      | Error msg -> fail "wrong answers: %s" msg);
      if not (List.equal Tuple.equal report.S.answers traced.t_answers) then
        fail "traced answers differ from Solve.run's"
      else if not (counters_equal report.S.counters traced.t_counters) then
        fail "traced engine counters differ from Solve.run's: %s vs %s"
          (Format.asprintf "%a" Counters.pp report.S.counters)
          (Format.asprintf "%a" Counters.pp traced.t_counters));
    words := traced.t_eval_minor_words :: !words;
    incr req;
    Spans.set_request sp !req;
    ignore (Spans.record sp "storage.copy" (fun () -> Database.copy traced.t_db));
    last := Some traced
  done;
  let by_name = Spans.self_by_name sp in
  List.iter
    (fun s ->
      if s.Spans.name = "query" then
        traced_s := (s.Spans.stop -. s.Spans.start) :: !traced_s)
    (Spans.spans sp);
  Spans.write sp spans_path;
  let t = Option.get !last in
  let c = t.t_counters in
  let eval_s = self_median by_name "engine.eval" in
  let load_s = self_median by_name "storage.load" in
  let parse_s = M.median parse_times in
  let fd = float_of_int c.Counters.facts_derived in
  let overhead_ms = (M.median !traced_s -. M.median !untraced_s) *. 1e3 in
  let universal =
    [ M.metric "parser.parse_s" "s" parse_s;
      M.metric "parser.mb_per_s" "MB/s"
        (float_of_int (String.length spec.text) /. 1e6 /. parse_s);
      M.metric "analysis.s" "s" (self_median by_name "analysis");
      M.metric "storage.load_s" "s" load_s;
      M.metric "storage.load_facts_per_s" "1/s" (float_of_int t.t_edb /. load_s);
      M.metric "storage.copy_ms" "ms" (1e3 *. self_median by_name "storage.copy");
      M.metric "engine.eval_s" "s" eval_s;
      M.metric "engine.facts_derived" "count" fd;
      M.metric "engine.firings" "count" (float_of_int c.Counters.firings);
      M.metric "engine.probes" "count" (float_of_int c.Counters.probes);
      M.metric "engine.scanned" "count" (float_of_int c.Counters.scanned);
      M.metric "engine.merge_steps" "count" (float_of_int c.Counters.merge_steps);
      M.metric "engine.derived_facts_per_s" "1/s" (fd /. eval_s);
      M.metric "engine.minor_words_per_fact" "words" (M.median !words /. fd);
      M.metric "gc.minor_collections" "count" (M.median !minors);
      M.metric "gc.major_collections" "count" (M.median !majors);
      M.metric "trace.overhead_ms" "ms" overhead_ms
    ]
  in
  let rewrite =
    if Hashtbl.mem by_name "rewrite" then
      [ M.metric "rewrite.s" "s" (self_median by_name "rewrite");
        M.metric "rewrite.rules" "count" (float_of_int t.t_rules)
      ]
    else []
  in
  M.print_lines "per layer (medians over traced queries)"
    (universal @ rewrite
    @ [ M.metric "core.solve_s" "s" (M.median !solve_s);
        M.metric "core.decode_s" "s" (M.median !decode_s);
        M.metric "core.answers_s" "s" (self_median by_name "core.answers");
        M.metric "core.traced_decode_s" "s" (self_median by_name "core.decode");
        M.metric "query.glue_s" "s" (self_median by_name "query");
        M.metric "query.untraced_s" "s" (M.median !untraced_s);
        M.metric "query.traced_s" "s" (M.median !traced_s);
        M.metric "engine.iterations" "count" (float_of_int c.Counters.iterations);
        M.metric "engine.subsumed" "count" (float_of_int c.Counters.subsumed);
        M.metric "samples" "count" (float_of_int (List.length !traced_s))
      ]);
  (!attempted, !failed, universal)
