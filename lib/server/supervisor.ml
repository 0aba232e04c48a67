open Datalog_ast
open Datalog_storage
module Json = Datalog_engine.Json
module L = Datalog_engine.Limits
module O = Alexander.Options
module S = Alexander.Solve

type config = {
  queue_depth : int;
  session_inflight : int;
  default_budgets : Protocol.budgets;
  retry_after_s : float;
  cache_capacity : int;
  snapshot_path : string option;
  durable_acks : bool;
  wal_path : string option;
  wal_fsync : Wal.fsync_policy;
  wal_max_bytes : int;
  idempotency_capacity : int;
  snapshot_every_s : float;
  options : O.t;
  log : string -> unit;
}

let default_config =
  { queue_depth = 64;
    session_inflight = 16;
    default_budgets = { Protocol.no_budgets with timeout_s = Some 5.0 };
    retry_after_s = 0.1;
    cache_capacity = 128;
    snapshot_path = None;
    durable_acks = true;
    wal_path = None;
    wal_fsync = Wal.Always;
    wal_max_bytes = 4 * 1024 * 1024;
    idempotency_capacity = 1024;
    snapshot_every_s = 30.0;
    options = O.default;
    log = ignore
  }

(* The log that durable acks ride on: explicit, or derived from the
   snapshot path.  [durable_acks = false] keeps the periodic-snapshot
   mode with no log at all. *)
let effective_wal_path config =
  if not config.durable_acks then None
  else
    match config.wal_path with
    | Some _ as p -> p
    | None -> Option.map (fun s -> s ^ ".wal") config.snapshot_path

type queued = {
  q_session : int;
  q_deadline : float;
  q_env : Protocol.envelope;
}

type metrics = {
  mutable queries : int;
  mutable mutations : int;
  mutable rejected : int;  (** invalid mutations (non-ground, derived) *)
  mutable expired : int;
  mutable overloaded : int;
  mutable snapshots : int;
  mutable wal_appends : int;
  mutable rotations : int;
  mutable idempotent_hits : int;
  mutable replayed : int;  (** transactions replayed from the log at start *)
}

(* What an idempotency key resolves to: enough to reconstruct the
   original ack verbatim. *)
type committed = { c_txn : int; c_op : string; c_count : int }

type t = {
  config : config;
  rules : Program.t;
      (** the rules plus [seed_idb_facts] (DRed's protected set); every
          other fact lives in the database *)
  idb : Pred.Set.t;
  seed_idb_facts : Atom.t list;
      (** program facts on derived predicates: always protected from
          DRed over-deletion, never reconstructible from the database *)
  graph : Datalog_analysis.Depgraph.t;
  positive : bool;
  db : Database.t;
  cache : Cache.t;
  cnt : Datalog_engine.Counters.t;
  deps_memo : Pred.Set.t Pred.Tbl.t;
  queue : queued Queue.t;
  inflight : (int, int) Hashtbl.t;
  mutable wal : Wal.t option;
  idem : (string, committed) Hashtbl.t;
  idem_order : string Queue.t;  (** insertion order, for bounded eviction *)
  mutable txn : int;
  mutable dirty : bool;  (** in-memory state newer than the snapshot *)
  mutable last_snapshot_at : float;
  metrics : metrics;
}

let positive t = t.positive
let txn t = t.txn
let db t = t.db
let pending t = Queue.length t.queue
let cache t = t.cache
let counters t = t.cnt
let wal_active t = t.wal <> None

let op_string = function `Add -> "add" | `Remove -> "remove"

(* ------------------------------------------------------------------ *)
(* Idempotency keys: a bounded table of committed transactions, rebuilt
   on recovery from the snapshot meta plus the replayed log, so a retry
   of an applied-but-unacked request resolves to its original ack. *)

let idem_find t key = Hashtbl.find_opt t.idem key

let idem_record t key c =
  if t.config.idempotency_capacity > 0 && not (Hashtbl.mem t.idem key) then begin
    Queue.add key t.idem_order;
    Hashtbl.replace t.idem key c;
    if Queue.length t.idem_order > t.config.idempotency_capacity then
      match Queue.take_opt t.idem_order with
      | Some oldest -> Hashtbl.remove t.idem oldest
      | None -> ()
  end

(* oldest first, so a reload preserves the eviction order *)
let idem_meta t =
  List.rev
    (Queue.fold
       (fun acc key ->
         match Hashtbl.find_opt t.idem key with
         | Some { c_txn; c_op; c_count } ->
           ("idem:" ^ key, Printf.sprintf "%d %s %d" c_txn c_op c_count)
           :: acc
         | None -> acc)
       [] t.idem_order)

let idem_of_meta meta =
  List.filter_map
    (fun (k, v) ->
      if String.length k > 5 && String.sub k 0 5 = "idem:" then
        let key = String.sub k 5 (String.length k - 5) in
        match String.split_on_char ' ' v with
        | [ txn; op; count ] -> (
          match (int_of_string_opt txn, int_of_string_opt count) with
          | Some c_txn, Some c_count ->
            Some (key, { c_txn; c_op = op; c_count })
          | _ -> None)
        | _ -> None
      else None)
    meta

(* ------------------------------------------------------------------ *)
(* Startup: warm-load or saturate *)

let program_is_positive program =
  List.for_all
    (fun r -> Rule.negative_body r = [])
    (Program.rules program)

let mode_name positive = if positive then "saturated" else "base"

let load_snapshot config path =
  match Snapshot.load_database_meta ~mode:Snapshot.Strict path with
  | Ok (db, meta, _) -> Ok (db, meta)
  | Error c -> (
    config.log
      (Printf.sprintf "snapshot %s: strict load failed (%s); retrying lenient"
         path
         (Snapshot.describe_corruption c));
    match Snapshot.load_database_meta ~mode:Snapshot.Lenient path with
    | Ok (db, meta, warnings) ->
      List.iter
        (fun w ->
          config.log
            (Printf.sprintf "snapshot %s: salvaged: %s" path
               (Snapshot.describe_warning w)))
        warnings;
      Ok (db, meta)
    | Error c ->
      Error
        (Printf.sprintf "snapshot %s unreadable even leniently: %s" path
           (Snapshot.describe_corruption c)))

let saturate program =
  match Datalog_engine.Stratified.run program with
  | Ok outcome -> Ok outcome.Datalog_engine.Stratified.db
  | Error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Durability *)

let persist t ~txn =
  match t.config.snapshot_path with
  | None -> Ok ()
  | Some path -> (
    let meta =
      [ ("mode", mode_name t.positive); ("txn", string_of_int txn) ]
      @ idem_meta t
    in
    match Snapshot.save_database ~meta t.db path with
    | Ok () ->
      t.metrics.snapshots <- t.metrics.snapshots + 1;
      t.dirty <- false;
      t.last_snapshot_at <- Unix.gettimeofday ();
      Ok ()
    | Error _ as e -> e)

(* Rotation: install a snapshot covering every logged transaction, then
   truncate the log to a fresh header.  A crash between the two leaves
   snapshot + full log; replay skips what the snapshot covers. *)
let rotate t =
  match (t.wal, t.config.snapshot_path) with
  | Some wal, Some _ -> (
    match persist t ~txn:t.txn with
    | Error _ as e -> e
    | Ok () -> (
      (* kill-point: snapshot installed, log not yet truncated *)
      Faults.point "server.rotate-installed";
      match Wal.reset wal with
      | Ok () ->
        t.metrics.rotations <- t.metrics.rotations + 1;
        Ok ()
      | Error _ as e ->
        (* the old log is intact and still open: rotation simply did
           not happen; a later mutation retries *)
        e))
  | _ -> Ok ()

let maybe_rotate t =
  match t.wal with
  | Some wal
    when t.config.snapshot_path <> None
         && Wal.size wal > t.config.wal_max_bytes -> (
    match rotate t with
    | Ok () -> ()
    | Error msg -> t.config.log ("wal rotation failed: " ^ msg))
  | _ -> ()

let snapshot_now t =
  match t.wal with
  | Some wal ->
    if t.config.snapshot_path <> None then rotate t
    else Wal.sync wal (* log-only durability: make the tail durable *)
  | None -> persist t ~txn:t.txn

let maybe_snapshot t ~now =
  match t.wal with
  | Some wal -> (
    (* group commit under the interval fsync policy *)
    match Wal.maybe_sync wal ~now with
    | Ok () -> ()
    | Error msg -> t.config.log ("wal sync failed: " ^ msg))
  | None ->
    if
      t.dirty
      && t.config.snapshot_path <> None
      && now -. t.last_snapshot_at >= t.config.snapshot_every_s
    then begin
      (* rate-limit retries on persistent I/O failure too *)
      t.last_snapshot_at <- now;
      match persist t ~txn:t.txn with
      | Ok () -> ()
      | Error msg -> t.config.log ("periodic snapshot failed: " ^ msg)
    end

(* ------------------------------------------------------------------ *)
(* Admission *)

type admission = Admitted | Overloaded of float | Session_capped

let session_inflight t session =
  Option.value ~default:0 (Hashtbl.find_opt t.inflight session)

let submit t ~session ~now env =
  if Queue.length t.queue >= t.config.queue_depth then begin
    t.metrics.overloaded <- t.metrics.overloaded + 1;
    Overloaded t.config.retry_after_s
  end
  else if session_inflight t session >= t.config.session_inflight then begin
    t.metrics.overloaded <- t.metrics.overloaded + 1;
    Session_capped
  end
  else begin
    Hashtbl.replace t.inflight session (session_inflight t session + 1);
    let timeout =
      match env.Protocol.budgets.Protocol.timeout_s with
      | Some s -> Some s
      | None -> t.config.default_budgets.Protocol.timeout_s
    in
    let deadline =
      match timeout with Some s -> now +. s | None -> infinity
    in
    Queue.add { q_session = session; q_deadline = deadline; q_env = env }
      t.queue;
    Admitted
  end

let forget_session t session = Hashtbl.remove t.inflight session

(* ------------------------------------------------------------------ *)
(* Queries *)

let deps_closure t pred =
  match Pred.Tbl.find_opt t.deps_memo pred with
  | Some s -> s
  | None ->
    let s =
      List.fold_left
        (fun acc q ->
          if Datalog_analysis.Depgraph.depends_on t.graph pred q then
            Pred.Set.add q acc
          else acc)
        (Pred.Set.singleton pred)
        (Datalog_analysis.Depgraph.preds t.graph)
    in
    Pred.Tbl.add t.deps_memo pred s;
    s

(* The base facts as atoms: what an engine run (and DRed's protected
   set) needs.  In saturated mode derived tuples must be excluded. *)
let base_atoms t =
  let include_pred p = (not t.positive) || not (Pred.Set.mem p t.idb) in
  let base =
    List.concat_map
      (fun p ->
        if include_pred p then
          List.map (Tuple.to_atom p) (Database.tuples t.db p)
        else [])
      (Database.preds t.db)
  in
  if t.positive then t.seed_idb_facts @ base else base

(* The stored tuples matching [goal], in insertion order: an index lookup
   on the constant columns (hash buckets are newest first, hence the
   reversal), then a filter for repeated variables. *)
let select_matching rel goal =
  let p = Tuple.pattern goal in
  let tuples =
    match Tuple.bindings p with
    | [] -> Relation.to_list rel
    | bindings -> List.rev (Relation.select rel bindings)
  in
  if Tuple.has_repeated_var p then List.filter (Tuple.pattern_matches p) tuples
  else tuples

let limits_of t budgets ~now ~deadline =
  let dflt = t.config.default_budgets in
  let pick get = match get budgets with Some v -> Some v | None -> get dflt in
  let timeout_s = pick (fun b -> b.Protocol.timeout_s) in
  (* queue wait counts against the budget: cap by the admission deadline *)
  let timeout_s =
    if deadline = infinity then timeout_s
    else
      let remaining = Float.max 0.001 (deadline -. now) in
      Some
        (match timeout_s with
        | Some s -> Float.min s remaining
        | None -> remaining)
  in
  let max_facts = pick (fun b -> b.Protocol.max_facts) in
  let max_iterations = pick (fun b -> b.Protocol.max_iterations) in
  let max_tuples = pick (fun b -> b.Protocol.max_tuples) in
  if
    timeout_s = None && max_facts = None && max_iterations = None
    && max_tuples = None
  then L.none
  else L.make ?timeout_s ?max_facts ?max_iterations ?max_tuples ()

let run_query t ~now ~deadline env goal engine =
  let id = env.Protocol.req_id in
  t.metrics.queries <- t.metrics.queries + 1;
  let wall () = Unix.gettimeofday () -. now in
  match (if engine then None else Cache.find t.cache goal) with
  | Some (answers, _kind) ->
    Protocol.answers_reply ~id ~goal ~answers ~cached:true ~complete:true
      ~reason:None ~txn:t.txn ~wall_s:(wall ())
  | None ->
    if t.positive && not engine then begin
      (* the saturated database already holds every answer *)
      let pred = Atom.pred goal in
      let answers =
        match Database.find t.db pred with
        | None -> []
        | Some rel -> select_matching rel goal
      in
      Cache.insert t.cache goal ~deps:(deps_closure t pred) answers;
      Protocol.answers_reply ~id ~goal ~answers ~cached:false ~complete:true
        ~reason:None ~txn:t.txn ~wall_s:(wall ())
    end
    else begin
      let program =
        Program.make ~facts:(base_atoms t) (Program.rules t.rules)
      in
      let limits = limits_of t env.Protocol.budgets ~now ~deadline in
      let options = { t.config.options with O.limits } in
      match S.run ~options program goal with
      | Error e -> Protocol.error ~id (Alexander.Errors.message e)
      | Ok report ->
        let complete = not (S.incomplete report) in
        if complete then
          Cache.insert t.cache goal
            ~deps:(deps_closure t (Atom.pred goal))
            report.S.answers;
        let reason =
          match report.S.status with
          | L.Exhausted r -> Some (L.reason_name r)
          | _ -> None
        in
        Protocol.answers_reply ~id ~goal ~answers:report.S.answers ~cached:false
          ~complete ~reason ~txn:t.txn ~wall_s:(wall ())
    end

(* ------------------------------------------------------------------ *)
(* Mutations: validate, apply, persist, ack — in that order. *)

let validate_mutation t facts =
  match List.find_opt (fun a -> not (Atom.is_ground a)) facts with
  | Some a ->
    Error
      (Format.asprintf "fact %a is not ground (facts may not contain variables)"
         Atom.pp a)
  | None -> (
    match
      List.find_opt (fun a -> Pred.Set.mem (Atom.pred a) t.idb) facts
    with
    | Some a ->
      Error
        (Format.asprintf
           "%a is derived by a rule; only extensional facts can be added \
            or removed"
           Atom.pp a)
    | None -> Ok ())

(* Maintenance always runs compiled; [Incremental] orders every plan
   delta-first with hash probes only, whatever the config says. *)
let maintenance_plan = Datalog_engine.Plan.config ()

let apply_mutation t ~limits ~on_change op facts =
  if t.positive then begin
    (* a counter of its own: the guard reads [facts_derived] absolutely,
       and [max_facts] budgets this request, not the service's lifetime *)
    let cnt = Datalog_engine.Counters.create () in
    let maintain =
      match op with
      | `Add -> Datalog_engine.Incremental.add_facts
      | `Remove -> Datalog_engine.Incremental.remove_facts
    in
    let result =
      maintain cnt ~limits ~plan:maintenance_plan ~on_change t.rules t.db
        facts
    in
    Datalog_engine.Counters.add t.cnt cnt;
    result
  end
  else begin
    (* base mode: the batch is plain tuple insertion / deletion *)
    let count = ref 0 in
    List.iter
      (fun a ->
        let changed =
          match op with
          | `Add -> Database.add_atom t.db a
          | `Remove -> Database.remove_atom t.db a
        in
        if changed then begin
          incr count;
          on_change (Atom.pred a)
        end)
      facts;
    Ok !count
  end

(* ------------------------------------------------------------------ *)
(* Startup: warm-load, replay, saturate *)

let load_wal config path =
  match Wal.load ~mode:Snapshot.Strict path with
  | Ok r -> Ok r
  | Error c -> (
    config.log
      (Printf.sprintf "wal %s: strict load failed (%s); retrying lenient"
         path
         (Wal.describe_corruption c));
    match Wal.load ~mode:Snapshot.Lenient path with
    | Ok ((_, _, tail) as r) ->
      (match tail with
      | Wal.Torn { at; reason } ->
        config.log
          (Printf.sprintf "wal %s: discarding torn tail at byte %d (%s)"
             path at reason)
      | Wal.Clean -> ());
      Ok r
    | Error c ->
      Error
        (Printf.sprintf "wal %s unreadable even leniently: %s" path
           (Wal.describe_corruption c)))

(* Re-apply every logged transaction the snapshot does not cover, in
   order, under no budget (they all committed once already).  The log
   and the snapshot must agree: a gap means one of them is not the
   other's, and guessing would silently lose acked transactions. *)
let replay_wal t entries =
  let rec go = function
    | [] -> Ok ()
    | e :: rest ->
      if e.Wal.e_txn <= t.txn then go rest
      else if e.Wal.e_txn <> t.txn + 1 then
        Error
          (Printf.sprintf
             "wal replay: transaction %d follows %d (log and snapshot \
              disagree; refusing to guess)"
             e.Wal.e_txn t.txn)
      else (
        match
          apply_mutation t ~limits:L.none ~on_change:ignore e.Wal.e_op
            e.Wal.e_facts
        with
        | Error msg ->
          Error
            (Printf.sprintf "wal replay: transaction %d failed: %s"
               e.Wal.e_txn msg)
        | Ok count ->
          t.txn <- e.Wal.e_txn;
          t.metrics.replayed <- t.metrics.replayed + 1;
          (match e.Wal.e_key with
          | Some key ->
            idem_record t key
              { c_txn = e.Wal.e_txn; c_op = op_string e.Wal.e_op;
                c_count = count }
          | None -> ());
          go rest)
  in
  go entries

let recover_wal t path =
  match load_wal t.config path with
  | Error _ as e -> e
  | Ok (entries, valid_bytes, _tail) -> (
    match replay_wal t entries with
    | Error _ as e -> e
    | Ok () -> (
      if t.metrics.replayed > 0 then
        t.config.log
          (Printf.sprintf "wal %s: replayed %d transaction(s), now at txn %d"
             path t.metrics.replayed t.txn);
      match
        Wal.open_for_append ~fsync:t.config.wal_fsync ~valid_bytes path
      with
      | Ok wal ->
        t.wal <- Some wal;
        Ok ()
      | Error msg ->
        Error (Printf.sprintf "wal %s: cannot open for append: %s" path msg)))

let create config program =
  let positive = program_is_positive program in
  let idb = Program.idb program in
  let seed_idb_facts =
    if positive then
      List.filter (fun a -> Pred.Set.mem (Atom.pred a) idb)
        (Program.facts program)
    else []
  in
  let rules = Program.make ~facts:seed_idb_facts (Program.rules program) in
  let fresh () =
    if positive then saturate program
    else Ok (Database.of_facts (Program.facts program))
  in
  let loaded =
    match config.snapshot_path with
    | Some path when Sys.file_exists path -> (
      match load_snapshot config path with
      | Error _ as e -> e
      | Ok (db, meta) -> (
        let txn =
          Option.value ~default:0
            (Option.bind (List.assoc_opt "txn" meta) int_of_string_opt)
        in
        match List.assoc_opt "mode" meta with
        | Some m when m = mode_name positive -> Ok (db, txn, meta)
        | Some "base" when positive -> (
          (* the snapshot predates the rules (or a mode change): the
             base facts are all there, so saturate them *)
          let facts =
            List.concat_map
              (fun p -> List.map (Tuple.to_atom p) (Database.tuples db p))
              (Database.preds db)
          in
          match saturate (Program.make ~facts (Program.rules program)) with
          | Ok db -> Ok (db, txn, meta)
          | Error _ as e -> e)
        | Some m ->
          Error
            (Printf.sprintf
               "snapshot %s holds a %S database but the program needs %S \
                (base facts cannot be told apart from derived ones)"
               path m (mode_name positive))
        | None ->
          (* not a server snapshot (no mode stamp): treat as the right
             mode only if that is safe, i.e. base mode *)
          if positive then
            Error
              (Printf.sprintf
                 "snapshot %s has no mode stamp; refusing to guess \
                  whether it is saturated"
                 path)
          else Ok (db, txn, meta)))
    | _ -> Result.map (fun db -> (db, 0, [])) (fresh ())
  in
  match loaded with
  | Error _ as e -> e
  | Ok (db, txn, meta) -> (
    let t =
      { config;
        rules;
        idb;
        seed_idb_facts;
        graph = Datalog_analysis.Depgraph.make program;
        positive;
        db;
        cache = Cache.create ~capacity:config.cache_capacity;
        cnt = Datalog_engine.Counters.create ();
        deps_memo = Pred.Tbl.create 32;
        queue = Queue.create ();
        inflight = Hashtbl.create 16;
        wal = None;
        idem = Hashtbl.create 64;
        idem_order = Queue.create ();
        txn;
        dirty = false;
        last_snapshot_at = Unix.gettimeofday ();
        metrics =
          { queries = 0; mutations = 0; rejected = 0; expired = 0;
            overloaded = 0; snapshots = 0; wal_appends = 0; rotations = 0;
            idempotent_hits = 0; replayed = 0 }
      }
    in
    List.iter (fun (k, c) -> idem_record t k c) (idem_of_meta meta);
    match effective_wal_path config with
    | None -> Ok t
    | Some wpath -> (
      match recover_wal t wpath with Ok () -> Ok t | Error _ as e -> e))

(* ------------------------------------------------------------------ *)
(* The mutation path.  With a log: append -> fsync -> apply -> ack, so
   durability costs O(batch) and an ack means "in the log".  Without
   one: apply in memory (periodic snapshots bound the loss window). *)

let commit_mutation t ~key ~op ~count ~changed =
  t.txn <- t.txn + 1;
  if count > 0 then t.dirty <- true;
  (match key with
  | Some k ->
    idem_record t k { c_txn = t.txn; c_op = op_string op; c_count = count }
  | None -> ());
  ignore (Cache.invalidate t.cache !changed);
  maybe_rotate t

let run_mutation t ~now ~deadline env op facts =
  let id = env.Protocol.req_id in
  t.metrics.mutations <- t.metrics.mutations + 1;
  let key = env.Protocol.idem_key in
  match Option.bind key (idem_find t) with
  | Some { c_txn; c_op; c_count } ->
    (* a retry of a transaction that already committed: return the
       original ack, apply nothing *)
    t.metrics.idempotent_hits <- t.metrics.idempotent_hits + 1;
    Protocol.ack ~id ~op:c_op ~count:c_count ~txn:c_txn ?key
      ~idempotent:true ()
  | None -> (
    match validate_mutation t facts with
    | Error msg ->
      t.metrics.rejected <- t.metrics.rejected + 1;
      Protocol.error ~id msg
    | Ok () -> (
      let limits = limits_of t env.Protocol.budgets ~now ~deadline in
      let changed = ref Pred.Set.empty in
      let on_change p = changed := Pred.Set.add p !changed in
      match t.wal with
      | Some wal -> (
        match Wal.append wal ~txn:(t.txn + 1) ~op ?key facts with
        | Error msg -> Protocol.error ~id ("durability failure: " ^ msg)
        | Ok () -> (
          t.metrics.wal_appends <- t.metrics.wal_appends + 1;
          (* kill-point: the frame is in the log (and, under the always
             policy, durable), but nothing is applied or acked yet *)
          Faults.point "server.wal-synced";
          match apply_mutation t ~limits ~on_change op facts with
          | Error msg ->
            (* the batch did not apply; cut its frame back out of the
               log so replay matches memory *)
            (match Wal.truncate_last wal with
            | Ok () -> ()
            | Error tmsg ->
              t.config.log
                ("wal truncate after failed apply: " ^ tmsg));
            Protocol.error ~id msg
          | Ok count ->
            commit_mutation t ~key ~op ~count ~changed;
            (* kill-point: durable but the client never saw the ack *)
            Faults.point "server.pre-ack";
            Protocol.ack ~id ~op:(op_string op) ~count ~txn:t.txn ?key ()))
      | None -> (
        match apply_mutation t ~limits ~on_change op facts with
        | Error msg -> Protocol.error ~id msg
        | Ok count ->
          commit_mutation t ~key ~op ~count ~changed;
          Faults.point "server.pre-ack";
          Protocol.ack ~id ~op:(op_string op) ~count ~txn:t.txn ?key ())))

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let stats_fields t =
  let c = Cache.stats t.cache in
  [ ("mode", Json.String (mode_name t.positive));
    ("txn", Json.Int t.txn);
    ("facts", Json.Int (Database.total_facts t.db));
    ("pending", Json.Int (Queue.length t.queue));
    ("queue_depth", Json.Int t.config.queue_depth);
    ("queries", Json.Int t.metrics.queries);
    ("mutations", Json.Int t.metrics.mutations);
    ("rejected", Json.Int t.metrics.rejected);
    ("expired", Json.Int t.metrics.expired);
    ("overloaded", Json.Int t.metrics.overloaded);
    ("snapshots", Json.Int t.metrics.snapshots);
    ("idempotent_hits", Json.Int t.metrics.idempotent_hits);
    ( "wal",
      match t.wal with
      | None -> Json.Null
      | Some wal ->
        Json.Obj
          [ ("path", Json.String (Wal.path wal));
            ("fsync", Json.String (Wal.fsync_policy_name (Wal.fsync_policy wal)));
            ("bytes", Json.Int (Wal.size wal));
            ("appends", Json.Int t.metrics.wal_appends);
            ("rotations", Json.Int t.metrics.rotations);
            ("replayed", Json.Int t.metrics.replayed)
          ] );
    ( "cache",
      Json.Obj
        [ ("entries", Json.Int (Cache.length t.cache));
          ("hits", Json.Int c.Cache.hits);
          ("subsumed_hits", Json.Int c.Cache.subsumed_hits);
          ("misses", Json.Int c.Cache.misses);
          ("insertions", Json.Int c.Cache.insertions);
          ("invalidations", Json.Int c.Cache.invalidations);
          ("evictions", Json.Int c.Cache.evictions)
        ] )
  ]

let handle t ~now ?(deadline = infinity) env =
  let id = env.Protocol.req_id in
  match env.Protocol.request with
  | Protocol.Query { goal; engine } ->
    (run_query t ~now ~deadline env goal engine, `Continue)
  | Protocol.Add facts -> (run_mutation t ~now ~deadline env `Add facts, `Continue)
  | Protocol.Remove facts ->
    (run_mutation t ~now ~deadline env `Remove facts, `Continue)
  | Protocol.Ping -> (Protocol.pong ~id, `Continue)
  | Protocol.Stats -> (Protocol.stats_reply ~id (stats_fields t), `Continue)
  | Protocol.Snapshot_now -> (
    match snapshot_now t with
    | Ok () ->
      (Protocol.ack ~id ~op:"snapshot" ~count:0 ~txn:t.txn (), `Continue)
    | Error msg -> (Protocol.error ~id msg, `Continue))
  | Protocol.Shutdown -> (Protocol.bye ~id, `Stop)

let process_one t ~now =
  match Queue.take_opt t.queue with
  | None -> None
  | Some { q_session; q_deadline; q_env } ->
    (match Hashtbl.find_opt t.inflight q_session with
    | Some n when n > 1 -> Hashtbl.replace t.inflight q_session (n - 1)
    | Some _ -> Hashtbl.remove t.inflight q_session
    | None -> ());
    if now > q_deadline then begin
      t.metrics.expired <- t.metrics.expired + 1;
      Some
        ( q_session,
          Protocol.error ~id:q_env.Protocol.req_id
            "deadline expired while queued (timeout)",
          `Continue )
    end
    else
      let reply, ctl = handle t ~now ~deadline:q_deadline q_env in
      Some (q_session, reply, ctl)
