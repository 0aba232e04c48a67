open Datalog_ast

(* The timing clock.  The switch has no monotonic-clock library
   (mtime/bechamel are not linked here), so this is the same clock the
   Limits governor samples; rows additionally carry the machine-independent
   counter deltas, which is what the paper's cost comparison reads. *)
let now = Unix.gettimeofday

type rule_row = {
  rule_text : string;
  mutable evals : int;
  mutable firings : int;
  mutable probes : int;
  mutable scanned : int;
  mutable derived : int;
  mutable merge_steps : int;
  mutable gallops : int;
  mutable r_subsumed : int;
  mutable time_s : float;
}

type pred_row = {
  pred_name : string;
  pred_arity : int;
  mutable p_probes : int;
  mutable p_scanned : int;
  mutable p_derived : int;
  mutable p_merge_steps : int;
  mutable p_gallops : int;
  mutable p_subsumed : int;
}

type round_row = {
  round : int;
  round_stratum : int;
  round_derived : int;
  round_time_s : float;
}

type stratum_row = {
  stratum : int;
  mutable s_rounds : int;
  mutable s_derived : int;
  mutable s_time_s : float;
}

type t = {
  active : bool;
  sink : (string -> unit) option;
  rule_tbl : (string, rule_row) Hashtbl.t;
  mutable rules_rev : rule_row list;  (* reverse first-seen order *)
  pred_tbl : (string * int, pred_row) Hashtbl.t;
  mutable preds_rev : pred_row list;
  mutable rounds_rev : round_row list;
  mutable strata_rev : stratum_row list;
  mutable round_no : int;
  mutable cur_stratum : int;
}

(* The inactive profile: every recording entry point checks [active] first,
   so sharing one sentinel (and its empty tables) is safe. *)
let none =
  { active = false;
    sink = None;
    rule_tbl = Hashtbl.create 1;
    rules_rev = [];
    pred_tbl = Hashtbl.create 1;
    preds_rev = [];
    rounds_rev = [];
    strata_rev = [];
    round_no = 0;
    cur_stratum = 0
  }

let create ?trace () =
  { active = true;
    sink = trace;
    rule_tbl = Hashtbl.create 32;
    rules_rev = [];
    pred_tbl = Hashtbl.create 32;
    preds_rev = [];
    rounds_rev = [];
    strata_rev = [];
    round_no = 0;
    cur_stratum = 0
  }

let is_active p = p.active

let note p msg =
  match p.sink with
  | None -> ()
  | Some sink -> sink (msg ())

let rule_row p rule =
  let key = Format.asprintf "%a" Rule.pp rule in
  match Hashtbl.find_opt p.rule_tbl key with
  | Some row -> row
  | None ->
    let row =
      { rule_text = key;
        evals = 0;
        firings = 0;
        probes = 0;
        scanned = 0;
        derived = 0;
        merge_steps = 0;
        gallops = 0;
        r_subsumed = 0;
        time_s = 0.0
      }
    in
    Hashtbl.add p.rule_tbl key row;
    p.rules_rev <- row :: p.rules_rev;
    row

let pred_row p pred =
  let key = (Pred.name pred, Pred.arity pred) in
  match Hashtbl.find_opt p.pred_tbl key with
  | Some row -> row
  | None ->
    let row =
      { pred_name = fst key;
        pred_arity = snd key;
        p_probes = 0;
        p_scanned = 0;
        p_derived = 0;
        p_merge_steps = 0;
        p_gallops = 0;
        p_subsumed = 0
      }
    in
    Hashtbl.add p.pred_tbl key row;
    p.preds_rev <- row :: p.preds_rev;
    row

let probe p pred ~scanned =
  if p.active then begin
    let row = pred_row p pred in
    row.p_probes <- row.p_probes + 1;
    row.p_scanned <- row.p_scanned + scanned
  end

let merge p pred ~gallops =
  if p.active then begin
    let row = pred_row p pred in
    row.p_merge_steps <- row.p_merge_steps + 1;
    row.p_gallops <- row.p_gallops + gallops
  end

let derived p pred =
  if p.active then begin
    let row = pred_row p pred in
    row.p_derived <- row.p_derived + 1
  end

let subsumed p pred =
  if p.active then begin
    let row = pred_row p pred in
    row.p_subsumed <- row.p_subsumed + 1
  end

(* The with_* combinators attribute counter deltas and elapsed time to a
   row.  They record on exceptional exit too: when Limits.Out_of_budget
   aborts an evaluation, the work done so far stays attributed. *)

let with_rule p cnt rule f =
  if not p.active then f ()
  else begin
    let row = rule_row p rule in
    let f0 = cnt.Counters.firings
    and pr0 = cnt.Counters.probes
    and sc0 = cnt.Counters.scanned
    and d0 = cnt.Counters.facts_derived
    and ms0 = cnt.Counters.merge_steps
    and g0 = cnt.Counters.gallops
    and su0 = cnt.Counters.subsumed in
    let t0 = now () in
    let record () =
      row.evals <- row.evals + 1;
      row.firings <- row.firings + (cnt.Counters.firings - f0);
      row.probes <- row.probes + (cnt.Counters.probes - pr0);
      row.scanned <- row.scanned + (cnt.Counters.scanned - sc0);
      row.derived <- row.derived + (cnt.Counters.facts_derived - d0);
      row.merge_steps <- row.merge_steps + (cnt.Counters.merge_steps - ms0);
      row.gallops <- row.gallops + (cnt.Counters.gallops - g0);
      row.r_subsumed <- row.r_subsumed + (cnt.Counters.subsumed - su0);
      row.time_s <- row.time_s +. (now () -. t0)
    in
    match f () with
    | x ->
      record ();
      x
    | exception e ->
      record ();
      raise e
  end

let with_round p cnt f =
  if not p.active then f ()
  else begin
    p.round_no <- p.round_no + 1;
    let n = p.round_no in
    let d0 = cnt.Counters.facts_derived in
    let t0 = now () in
    let record () =
      let dt = now () -. t0 in
      let derived = cnt.Counters.facts_derived - d0 in
      p.rounds_rev <-
        { round = n;
          round_stratum = p.cur_stratum;
          round_derived = derived;
          round_time_s = dt
        }
        :: p.rounds_rev;
      note p (fun () ->
          Printf.sprintf "round %d (stratum %d): +%d fact(s) in %.3f ms" n
            p.cur_stratum derived (dt *. 1000.))
    in
    match f () with
    | x ->
      record ();
      x
    | exception e ->
      record ();
      raise e
  end

let with_stratum p cnt stratum f =
  if not p.active then f ()
  else begin
    let row = { stratum; s_rounds = 0; s_derived = 0; s_time_s = 0.0 } in
    let r0 = p.round_no and d0 = cnt.Counters.facts_derived in
    let prev = p.cur_stratum in
    p.cur_stratum <- stratum;
    let t0 = now () in
    let record () =
      row.s_rounds <- p.round_no - r0;
      row.s_derived <- cnt.Counters.facts_derived - d0;
      row.s_time_s <- now () -. t0;
      p.strata_rev <- row :: p.strata_rev;
      p.cur_stratum <- prev;
      note p (fun () ->
          Printf.sprintf "stratum %d: %d round(s), +%d fact(s) in %.3f ms"
            stratum row.s_rounds row.s_derived (row.s_time_s *. 1000.))
    in
    match f () with
    | x ->
      record ();
      x
    | exception e ->
      record ();
      raise e
  end

let rules p = List.rev p.rules_rev
let preds p = List.rev p.preds_rev
let rounds p = List.rev p.rounds_rev
let strata p = List.rev p.strata_rev

let to_json p =
  let rule_json (r : rule_row) =
    Json.Obj
      [ ("rule", Json.String r.rule_text);
        ("evals", Json.Int r.evals);
        ("firings", Json.Int r.firings);
        ("probes", Json.Int r.probes);
        ("scanned", Json.Int r.scanned);
        ("derived", Json.Int r.derived);
        ("merge_steps", Json.Int r.merge_steps);
        ("gallops", Json.Int r.gallops);
        ("subsumed", Json.Int r.r_subsumed);
        ("time_s", Json.Float r.time_s)
      ]
  in
  let pred_json (r : pred_row) =
    Json.Obj
      [ ("pred", Json.String (Printf.sprintf "%s/%d" r.pred_name r.pred_arity));
        ("probes", Json.Int r.p_probes);
        ("scanned", Json.Int r.p_scanned);
        ("derived", Json.Int r.p_derived);
        ("merge_steps", Json.Int r.p_merge_steps);
        ("gallops", Json.Int r.p_gallops);
        ("subsumed", Json.Int r.p_subsumed)
      ]
  in
  let stratum_json (r : stratum_row) =
    Json.Obj
      [ ("stratum", Json.Int r.stratum);
        ("rounds", Json.Int r.s_rounds);
        ("derived", Json.Int r.s_derived);
        ("time_s", Json.Float r.s_time_s)
      ]
  in
  let round_json (r : round_row) =
    Json.Obj
      [ ("round", Json.Int r.round);
        ("stratum", Json.Int r.round_stratum);
        ("derived", Json.Int r.round_derived);
        ("time_s", Json.Float r.round_time_s)
      ]
  in
  Json.Obj
    [ ("enabled", Json.Bool p.active);
      ("rules", Json.List (List.map rule_json (rules p)));
      ("predicates", Json.List (List.map pred_json (preds p)));
      ("strata", Json.List (List.map stratum_json (strata p)));
      ("rounds", Json.List (List.map round_json (rounds p)))
    ]

let pp ppf p =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (r : rule_row) ->
      Format.fprintf ppf
        "%-60s evals=%d firings=%d probes=%d scanned=%d derived=%d \
         time=%.3fms@,"
        r.rule_text r.evals r.firings r.probes r.scanned r.derived
        (r.time_s *. 1000.))
    (rules p);
  Format.fprintf ppf "@]"
