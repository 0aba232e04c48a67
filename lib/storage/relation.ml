open Datalog_ast

type bucket = {
  mutable tuples : Tuple.t list;  (* may contain dead tuples, newest first *)
  mutable blen : int;  (* number of *live* tuples in [tuples] *)
  mutable dead : int;  (* removed tuples not yet filtered out of [tuples] *)
}

type index = {
  cols : int array;  (* strictly increasing column numbers *)
  map : bucket Tuple.Tbl.t;  (* projected key -> matching tuples *)
}

(* A sorted columnar projection for one column set.  [srows] holds the
   live tuples ordered by their projection onto [scols] (raw code order),
   with equal keys ordered newest-insertion-first — the same within-key
   order as the hash buckets, so merge joins and hash joins enumerate a
   join group identically.  [skeys] is the column-major copy of the key
   columns ([skeys.(j).(i) = srows.(i).(scols.(j))]), which is what the
   galloping search touches, keeping its memory traffic to the key bytes
   instead of whole tuples.  Inserts go to [pending] (a newest-first run,
   sorted and merged into [srows] on the next read); a removal marks the
   projection [stale], rebuilding it wholesale on the next read.

   [srows] and [skeys] are capacity-managed: only the first [slen] slots
   are live, and the arrays grow geometrically, so the per-round merge of
   a fixpoint loop reuses the same buffers instead of allocating fresh
   ones — refresh allocates O(run) amortized, not O(relation). *)
type sorted = {
  scols : int array;  (* strictly increasing column numbers *)
  mutable srows : Tuple.t array;  (* live in [0, slen); capacity beyond *)
  mutable skeys : Code.t array array;  (* same capacity as [srows] *)
  mutable slen : int;
  mutable pending : Tuple.t list;
  mutable npending : int;
  mutable stale : bool;
}

(* Tuples live in [order], a growable array in insertion order; a removal
   overwrites the slot with the physical sentinel [tombstone] instead of
   shifting the array, which is compacted once tombstones dominate.
   [table] is an open-addressed set over the live slots.  An entry packs
   the low 31 bits of the tuple's hash (its tag) above its 31-bit slot in
   [order]; [-1] is empty.  Linear probing over a power-of-two capacity
   kept at most half full, with backward-shift deletion, so the table
   never holds tombstones.  A probe compares tags before it touches a
   tuple, and the tag is also what locates an entry's home when the
   table grows or shifts, so no tuple is ever rehashed.

   Index buckets are tombstoned too: [remove] only decrements a
   per-bucket live count, and dead entries are filtered out the next time
   the bucket is read — the reader walks the whole bucket anyway, so the
   filter costs nothing asymptotically and [remove] is O(#indexes)
   outright. *)
type t = {
  name : string;
  arity : int;
  mutable table : int array;  (* [tag lsl 31 lor slot], [-1] = empty *)
  mutable mask : int;  (* [Array.length table - 1] *)
  mutable order : Tuple.t array;  (* [tombstone] marks removed slots *)
  mutable filled : int;  (* slots in use, live or tombstoned *)
  mutable size : int;  (* live tuples *)
  indexes : (int list, index) Hashtbl.t;
  sorted_idx : (int list, sorted) Hashtbl.t;
  mutable generation : int;  (* bumped whenever indexes are invalidated *)
}

(* Physically distinct from every stored tuple: it is never handed out.
   Not [[||]], which all arity-0 tuples share. *)
let tombstone : Tuple.t = Array.make 1 0

let slot_bits = 31
let low = (1 lsl slot_bits) - 1  (* a slot, or a tag *)
let tag_of tuple = Tuple.hash tuple land low
let min_entries = 16

let create ?(name = "?") arity =
  { name;
    arity;
    table = Array.make min_entries (-1);
    mask = min_entries - 1;
    order = [||];
    filled = 0;
    size = 0;
    indexes = Hashtbl.create 4;
    sorted_idx = Hashtbl.create 4;
    generation = 0
  }

let arity r = r.arity

(* The position of the entry holding [tuple] (tag [tag]), or [-1 - p]
   where [p] is the empty entry that ends its probe run. *)
let rec find_entry r tuple tag p =
  let e = Array.unsafe_get r.table p in
  if e < 0 then -1 - p
  else if e lsr slot_bits = tag && Tuple.equal r.order.(e land low) tuple
  then p
  else find_entry r tuple tag ((p + 1) land r.mask)

let mem r tuple =
  let tag = tag_of tuple in
  find_entry r tuple tag (tag land r.mask) >= 0

(* Move every entry into a fresh table of [entries] entries. *)
let rehash r entries =
  let old = r.table in
  let mask = entries - 1 in
  let table = Array.make entries (-1) in
  let rec place e p =
    if table.(p) < 0 then table.(p) <- e else place e ((p + 1) land mask)
  in
  Array.iter (fun e -> if e >= 0 then place e ((e lsr slot_bits) land mask)) old;
  r.table <- table;
  r.mask <- mask

(* Backward-shift deletion: empty entry [p], then walk the rest of its
   run, moving back into the hole every entry whose home is not
   cyclically within (hole, entry]. *)
let rec shift_back r hole p =
  let q = (p + 1) land r.mask in
  let e = r.table.(q) in
  if e < 0 then r.table.(hole) <- -1
  else
    let home = (e lsr slot_bits) land r.mask in
    let stays =
      if hole <= q then hole < home && home <= q else hole < home || home <= q
    in
    if stays then shift_back r hole q
    else begin
      r.table.(hole) <- e;
      shift_back r q q
    end

(* Drop dead tuples from a bucket.  Liveness is membership in [table],
   which is why [insert] must register index entries *before* the table:
   a remove-then-reinsert of the same tuple would otherwise see its own
   fresh copy as live while the dead one still sits in the bucket. *)
let bucket_compact r b =
  if b.dead > 0 then begin
    b.tuples <- List.filter (mem r) b.tuples;
    b.dead <- 0
  end

let bucket_tuples r b =
  bucket_compact r b;
  b.tuples

let index_add r idx tuple =
  let key = Tuple.project idx.cols tuple in
  match Tuple.Tbl.find_opt idx.map key with
  | Some b ->
    bucket_compact r b;
    b.tuples <- tuple :: b.tuples;
    b.blen <- b.blen + 1
  | None -> Tuple.Tbl.add idx.map key { tuples = [ tuple ]; blen = 1; dead = 0 }

let grow r =
  let cap = Array.length r.order in
  let cap' = if cap = 0 then 16 else 2 * cap in
  if cap' > low + 1 then
    failwith (Printf.sprintf "Relation(%s): more than 2^31 slots" r.name);
  let order' = Array.make cap' tombstone in
  Array.blit r.order 0 order' 0 cap;
  r.order <- order'

let insert r tuple =
  if Array.length tuple <> r.arity then
    invalid_arg
      (Printf.sprintf "Relation.insert(%s): arity %d, tuple of width %d"
         r.name r.arity (Array.length tuple));
  let tag = tag_of tuple in
  let e = find_entry r tuple tag (tag land r.mask) in
  if e >= 0 then false
  else begin
    (* indexes before the table: see [bucket_compact].  The length tests
       spare the iterator closures on relations with nothing to maintain,
       such as every delta. *)
    if Hashtbl.length r.indexes > 0 then
      Hashtbl.iter (fun _ idx -> index_add r idx tuple) r.indexes;
    if Hashtbl.length r.sorted_idx > 0 then
      Hashtbl.iter
        (fun _ s ->
          if not s.stale then begin
            s.pending <- tuple :: s.pending;
            s.npending <- s.npending + 1
          end)
        r.sorted_idx;
    if r.filled = Array.length r.order then grow r;
    r.table.(-1 - e) <- (tag lsl slot_bits) lor r.filled;
    r.order.(r.filled) <- tuple;
    r.filled <- r.filled + 1;
    r.size <- r.size + 1;
    if 2 * r.size > r.mask + 1 then rehash r (2 * (r.mask + 1));
    true
  end

(* Squeeze the tombstones out of [order] and renumber the table's slots
   to match: [remap] sends each old live slot to its new one. *)
let compact r =
  let remap = Array.make r.filled (-1) in
  let j = ref 0 in
  for i = 0 to r.filled - 1 do
    let tuple = r.order.(i) in
    if tuple != tombstone then begin
      r.order.(!j) <- tuple;
      remap.(i) <- !j;
      incr j
    end
  done;
  Array.fill r.order !j (r.filled - !j) tombstone;
  r.filled <- !j;
  Array.iteri
    (fun p e ->
      if e >= 0 then r.table.(p) <- (e land lnot low) lor remap.(e land low))
    r.table

let remove r tuple =
  let tag = tag_of tuple in
  let p = find_entry r tuple tag (tag land r.mask) in
  if p < 0 then false
  else begin
    r.order.(r.table.(p) land low) <- tombstone;
    shift_back r p p;
    r.size <- r.size - 1;
    Hashtbl.iter
      (fun _ idx ->
        let key = Tuple.project idx.cols tuple in
        match Tuple.Tbl.find_opt idx.map key with
        | None -> ()
        | Some b ->
          b.blen <- b.blen - 1;
          (* no dead buckets: an emptied one is dropped *)
          if b.blen = 0 then Tuple.Tbl.remove idx.map key
          else b.dead <- b.dead + 1)
      r.indexes;
    Hashtbl.iter
      (fun _ s ->
        if not s.stale then begin
          s.stale <- true;
          s.pending <- [];
          s.npending <- 0
        end)
      r.sorted_idx;
    if r.filled > 64 && r.filled > 2 * r.size then compact r;
    true
  end

let cardinal r = r.size
let is_empty r = r.size = 0

let iter f r =
  for i = 0 to r.filled - 1 do
    let tuple = r.order.(i) in
    if tuple != tombstone then f tuple
  done

let fold f r init =
  let acc = ref init in
  for i = 0 to r.filled - 1 do
    let tuple = r.order.(i) in
    if tuple != tombstone then acc := f tuple !acc
  done;
  !acc

let to_list r =
  let acc = ref [] in
  for i = r.filled - 1 downto 0 do
    let tuple = r.order.(i) in
    if tuple != tombstone then acc := tuple :: !acc
  done;
  !acc

(* Column sets are validated here, once per index creation, rather than on
   every probe: callers ([select], [prepare]) always pass a sorted list. *)
let check_cols cols_list =
  let rec check = function
    | i :: (j :: _ as rest) ->
      if i = j then invalid_arg "Relation: duplicate column";
      check rest
    | _ -> ()
  in
  check cols_list

let get_index r cols_list =
  match Hashtbl.find_opt r.indexes cols_list with
  | Some idx -> idx
  | None ->
    check_cols cols_list;
    let idx =
      { cols = Array.of_list cols_list; map = Tuple.Tbl.create 64 }
    in
    iter (fun t -> index_add r idx t) r;
    Hashtbl.add r.indexes cols_list idx;
    idx

(* Shared by [select] and [select_count]: sort the bindings by column,
   collapse duplicates (two equal bindings on one column are redundant;
   two conflicting ones match nothing, [None]), build the projected key,
   and find the bucket (if any) in the index on those columns.
   [bindings] must be non-empty. *)
let find_bucket r bindings =
  let sorted = List.sort (fun (i, _) (j, _) -> Int.compare i j) bindings in
  let rec dedup acc = function
    | [] -> Some (List.rev acc)
    | (i, c) :: (((j, d) :: _) as rest) when i = j ->
      if Code.equal c d then dedup acc rest else None
    | b :: rest -> dedup (b :: acc) rest
  in
  match dedup [] sorted with
  | None -> None
  | Some bindings ->
    let cols = List.map fst bindings in
    let key = Array.of_list (List.map snd bindings) in
    let idx = get_index r cols in
    Tuple.Tbl.find_opt idx.map key

let select r bindings =
  match bindings with
  | [] -> to_list r
  | _ -> (
    match find_bucket r bindings with
    | None -> []
    | Some b -> bucket_tuples r b)

let select_count r bindings =
  match bindings with
  | [] -> (to_list r, r.size)
  | _ -> (
    match find_bucket r bindings with
    | None -> ([], 0)
    | Some b -> (bucket_tuples r b, b.blen))

(* Pre-resolved index handles.  [prepare] validates and sorts the column
   set once, at plan-compile time; [probe] then memoises the index of the
   last relation it was used against, so the per-call cost is a single
   physical-equality + generation check followed by one hash lookup. *)
type access = {
  acols : int list;  (* sorted, duplicate-free *)
  mutable m_rel : t option;  (* relation the memo belongs to (physical) *)
  mutable m_gen : int;  (* generation observed when memoised *)
  mutable m_idx : index option;
}

let prepare cols =
  let sorted = List.sort_uniq Int.compare cols in
  if List.length sorted <> List.length cols then
    invalid_arg "Relation.prepare: duplicate column";
  List.iter
    (fun c -> if c < 0 then invalid_arg "Relation.prepare: negative column")
    sorted;
  { acols = sorted; m_rel = None; m_gen = 0; m_idx = None }

let access_index r a =
  match a.m_idx with
  | Some idx
    when (match a.m_rel with Some r' -> r' == r | None -> false)
         && a.m_gen = r.generation ->
    idx
  | _ ->
    let idx = get_index r a.acols in
    a.m_rel <- Some r;
    a.m_gen <- r.generation;
    a.m_idx <- Some idx;
    idx

let probe r a key =
  let idx = access_index r a in
  match Tuple.Tbl.find_opt idx.map key with
  | None -> ([], 0)
  | Some b -> (bucket_tuples r b, b.blen)

(* ------------------------------------------------------------------ *)
(* Sorted columnar projections                                         *)

(* Raw code order ([Code.compare] is [Int.compare] on the interned ids):
   merge joins only need *some* total order shared by both sides, and
   comparing ints beats decoding values. *)
let key_compare scols a b =
  let k = Array.length scols in
  let rec go j =
    if j >= k then 0
    else
      let c = Code.compare a.(scols.(j)) b.(scols.(j)) in
      if c <> 0 then c else go (j + 1)
  in
  go 0

(* Refill the column-major key arrays from [srows.(lo .. slen-1)];
   earlier slots are untouched rows whose keys are already in place.
   Pure writes — never allocates. *)
let columnize_from s lo =
  Array.iteri
    (fun j c ->
      let col = s.skeys.(j) in
      for i = lo to s.slen - 1 do
        col.(i) <- s.srows.(i).(c)
      done)
    s.scols

(* Grow the row and key buffers to at least [cap] slots (geometric),
   carrying the live rows over.  Returns [true] when it reallocated, in
   which case the key arrays are fresh and need a full [columnize_from 0]. *)
let sorted_ensure s cap =
  if Array.length s.srows >= cap then false
  else begin
    let cap' = max cap (max 16 (2 * Array.length s.srows)) in
    let rows' = Array.make cap' ([||] : Tuple.t) in
    Array.blit s.srows 0 rows' 0 s.slen;
    s.srows <- rows';
    s.skeys <- Array.map (fun _ -> Array.make cap' (Code.of_int 0)) s.scols;
    true
  end

(* Bring a projection up to date.  Both paths preserve the invariant
   that equal keys are ordered newest-insertion-first: a full rebuild
   lists tuples newest-first before the stable sort, and the pending run
   (newest first by construction, and younger than everything in
   [srows]) wins ties in the merge. *)
let refresh_sorted r s =
  if s.stale then begin
    (* removals are rare on the fixpoint path, so the rebuild allocates
       exact-size buffers (the whole array must be sorted, and the stdlib
       sort has no prefix variant) *)
    let rows = Array.make r.size ([||] : Tuple.t) in
    let j = ref 0 in
    for i = r.filled - 1 downto 0 do
      let t = r.order.(i) in
      if t != tombstone then begin
        rows.(!j) <- t;
        incr j
      end
    done;
    Array.stable_sort (key_compare s.scols) rows;
    s.srows <- rows;
    s.slen <- r.size;
    s.skeys <- Array.map (fun _ -> Array.make r.size (Code.of_int 0)) s.scols;
    columnize_from s 0;
    s.pending <- [];
    s.npending <- 0;
    s.stale <- false
  end
  else if s.npending > 0 then begin
    let run = Array.of_list s.pending in
    Array.stable_sort (key_compare s.scols) run;
    let nb = s.slen and nr = Array.length run in
    let grew = sorted_ensure s (nb + nr) in
    (* in-place tail merge: walk base and run from their high ends, filling
       [srows] downward from [nb + nr - 1].  Once the run is exhausted the
       remaining base rows are already in place, so slots below the last
       write (and their keys) are never touched — when new tuples intern
       to high codes, the merge only churns the tail of the buffers. *)
    let i = ref (nb - 1) and j = ref (nr - 1) in
    let m = ref (nb + nr - 1) in
    while !j >= 0 do
      (* base wins ties here: placed at the higher slot, it lands *after*
         the equal-keyed (younger) run row *)
      if !i >= 0 && key_compare s.scols s.srows.(!i) run.(!j) >= 0 then begin
        s.srows.(!m) <- s.srows.(!i);
        decr i
      end
      else begin
        s.srows.(!m) <- run.(!j);
        decr j
      end;
      decr m
    done;
    s.slen <- nb + nr;
    columnize_from s (if grew then 0 else !m + 1);
    s.pending <- [];
    s.npending <- 0
  end

let get_sorted r cols_list =
  match Hashtbl.find_opt r.sorted_idx cols_list with
  | Some s -> s
  | None ->
    check_cols cols_list;
    let s =
      { scols = Array.of_list cols_list;
        srows = [||];
        skeys = [||];
        slen = 0;
        pending = [];
        npending = 0;
        stale = true
      }
    in
    Hashtbl.add r.sorted_idx cols_list s;
    s

type sorted_access = {
  sacols : int list;  (* sorted, duplicate-free *)
  mutable sm_rel : t option;
  mutable sm_gen : int;
  mutable sm_srt : sorted option;
}

type sorted_view = {
  sv_rows : Tuple.t array;
  sv_keys : Code.t array array;
  sv_len : int;
}

let prepare_sorted cols =
  let sorted = List.sort_uniq Int.compare cols in
  if List.length sorted <> List.length cols then
    invalid_arg "Relation.prepare_sorted: duplicate column";
  List.iter
    (fun c ->
      if c < 0 then invalid_arg "Relation.prepare_sorted: negative column")
    sorted;
  { sacols = sorted; sm_rel = None; sm_gen = 0; sm_srt = None }

let sorted_view r a =
  let s =
    match a.sm_srt with
    | Some s
      when (match a.sm_rel with Some r' -> r' == r | None -> false)
           && a.sm_gen = r.generation ->
      s
    | _ ->
      let s = get_sorted r a.sacols in
      a.sm_rel <- Some r;
      a.sm_gen <- r.generation;
      a.sm_srt <- Some s;
      s
  in
  refresh_sorted r s;
  { sv_rows = s.srows; sv_keys = s.skeys; sv_len = s.slen }

(* The table's slot numbers stay valid because [order] is copied slot
   for slot, tombstones included: no tuple is rehashed. *)
let copy r =
  { (create ~name:r.name r.arity) with
    table = Array.copy r.table;
    mask = r.mask;
    order = Array.sub r.order 0 r.filled;
    filled = r.filled;
    size = r.size
  }

let clear r =
  r.table <- Array.make min_entries (-1);
  r.mask <- min_entries - 1;
  r.order <- [||];
  r.filled <- 0;
  r.size <- 0;
  Hashtbl.reset r.indexes;
  Hashtbl.reset r.sorted_idx;
  r.generation <- r.generation + 1

let union_into ~src ~dst =
  fold (fun t acc -> if insert dst t then acc + 1 else acc) src 0

let index_count r = Hashtbl.length r.indexes
let sorted_index_count r = Hashtbl.length r.sorted_idx

let bucket_count r =
  Hashtbl.fold (fun _ idx acc -> acc + Tuple.Tbl.length idx.map) r.indexes 0

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Tuple.pp)
    (to_list r)
