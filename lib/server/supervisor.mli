(** The service core, independent of any socket: state, admission
    control, request execution, durability.

    Every behaviour the server must guarantee lives here so it can be
    exercised without I/O — the fault drill drives [submit]/[process_one]
    directly and kills the process (via {!Datalog_storage.Faults}
    kill-points) between the transaction steps.

    {2 Execution modes}

    A {e positive} program (no negation) is kept {e saturated}: the
    database holds every derivable fact, mutations propagate through
    {!Datalog_engine.Incremental} (transactionally — a budget blown
    mid-propagation rolls the whole batch back), and queries are served
    by scanning the saturated relation.  A program with negation keeps
    only base facts and answers queries with a full engine run under the
    request budget; exhaustion surfaces as a ["partial"] reply.

    {2 Durability contract}

    With durable acks configured, mutations ride a write-ahead log
    ({!Datalog_storage.Wal}): append the transaction's frame, fsync
    (policy permitting), apply in memory, {e then} ack — so durability
    costs O(batch), not O(database), per transaction.  Recovery is
    snapshot load + log replay: on restart every {e acked} batch is
    present, every {e unacked} batch is absent or fully applied, and
    under the [always] fsync policy the recovered state is exactly the
    acked prefix plus at most the one in-flight transaction.  An append
    {e failure} (as opposed to a crash) refuses the transaction before
    anything applies; an apply failure truncates the already-appended
    frame back out of the log.  When the log outgrows
    [wal_max_bytes] (and on {!snapshot_now}), a fresh snapshot is
    installed and the log truncated — rotation.

    Mutations may carry a client idempotency key ([key] field): the key
    is recorded in the log with the committed transaction and held in a
    bounded table (rebuilt on recovery from snapshot meta + replay), so
    a client that times out and retries an applied-but-unacked request
    gets the original ack back ([idempotent:true]) instead of a double
    apply — exactly-once end to end.

    Kill-points ["wal.appended"] (frame written, not yet fsynced),
    ["server.wal-synced"] (durable, not yet applied),
    ["server.pre-ack"] (applied, client never saw the ack) and
    ["server.rotate-installed"] (snapshot installed, log not yet
    truncated) let the drill cut at the interesting instants. *)

open Datalog_ast
module Json = Datalog_engine.Json

type config = {
  queue_depth : int;  (** admission queue bound; beyond it, shed *)
  session_inflight : int;  (** per-session cap on admitted requests *)
  default_budgets : Protocol.budgets;
  retry_after_s : float;  (** hint attached to overload replies *)
  cache_capacity : int;
  snapshot_path : string option;
      (** recovery baseline and rotation target; durability is off when
          both this and [wal_path] are [None] *)
  durable_acks : bool;
      (** [true] (default): every mutation is appended to the
          write-ahead log before its ack — the ack is a durability
          receipt (exact under the [always] fsync policy).  [false]:
          acks are memory-only, no log is kept, and the periodic
          snapshot bounds the loss window to [snapshot_every_s]. *)
  wal_path : string option;
      (** where the log lives; defaults to [snapshot_path ^ ".wal"]
          when durable acks are on and a snapshot path is set *)
  wal_fsync : Datalog_storage.Wal.fsync_policy;
      (** [Always] (default), [Interval s] (group commit), or [Never] *)
  wal_max_bytes : int;
      (** rotation threshold: once the log exceeds this, a snapshot is
          installed and the log truncated (needs [snapshot_path]) *)
  idempotency_capacity : int;
      (** how many committed idempotency keys are remembered (FIFO
          eviction); [0] disables the table *)
  snapshot_every_s : float;
      (** periodic snapshot cadence (non-WAL mode only) *)
  options : Alexander.Options.t;  (** engine-mode evaluation options *)
  log : string -> unit;
}

val default_config : config
(** Queue depth 64, 16 in-flight per session, 5s default timeout,
    0.1s retry hint, cache capacity 128, no snapshot path, durable
    acks, always-fsync, 4 MiB rotation threshold, 1024 idempotency
    keys, 30s cadence, default engine options, silent log. *)

type t

val create : config -> Program.t -> (t, string) result
(** Warm start: when the snapshot path exists it is loaded Strict, then
    Lenient (logging each salvage warning) — the acked-transaction
    counter and the idempotency table ride in the snapshot meta.  With
    durable acks, the write-ahead log is then loaded the same way (a
    torn tail is truncated with a logged warning) and every transaction
    beyond the snapshot is replayed in order; a gap between snapshot
    and log, or a replay failure, refuses to start.  A snapshot or log
    unreadable even leniently refuses to start.  With no snapshot, a
    positive program is saturated from its facts; a program with
    negation starts from its base facts. *)

val positive : t -> bool
val txn : t -> int
val db : t -> Datalog_storage.Database.t
val pending : t -> int
val cache : t -> Cache.t

val counters : t -> Datalog_engine.Counters.t
(** The join counters accumulated by every mutation's maintenance (and
    replay) since {!create}. *)

val wal_active : t -> bool
(** Whether mutations are riding a write-ahead log. *)

type admission = Admitted | Overloaded of float | Session_capped

val submit :
  t -> session:int -> now:float -> Protocol.envelope -> admission
(** Admission happens before any execution: a full queue sheds the
    request (bounded work, explicit reply), a session over its in-flight
    cap is told to back off without penalising other sessions.  An
    admitted request's deadline is fixed here — queue wait counts
    against the budget. *)

val forget_session : t -> int -> unit

val process_one : t -> now:float -> (int * Json.t * [ `Continue | `Stop ]) option
(** Pop and execute the oldest admitted request; [None] on an empty
    queue.  A request whose deadline passed while queued is answered
    with an error without being executed.  [`Stop] reports a shutdown
    request (the reply must still be delivered). *)

val handle :
  t -> now:float -> ?deadline:float -> Protocol.envelope ->
  Json.t * [ `Continue | `Stop ]
(** Execute a request immediately (the path [process_one] uses;
    exposed for control requests that bypass the queue). *)

val snapshot_now : t -> (unit, string) result
(** In WAL mode: force a rotation (snapshot install + log truncation),
    or just fsync the log tail when there is no snapshot path.
    Otherwise: persist a snapshot; no-op without a snapshot path. *)

val maybe_snapshot : t -> now:float -> unit
(** The serve loop's periodic tick.  In WAL mode this drives the
    [Interval] group-commit fsync; otherwise it persists a periodic
    snapshot when the cadence elapsed and a transaction landed since
    the last write. *)

val stats_fields : t -> (string * Json.t) list
